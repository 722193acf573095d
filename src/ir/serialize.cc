#include "ir/serialize.hh"

#include <cctype>
#include <map>
#include <sstream>

#include "support/logging.hh"

namespace lbp
{

namespace
{

// ---------------------------------------------------------------
// Writer
// ---------------------------------------------------------------

const char *
defKindToken(PredDefKind k)
{
    return predDefKindName(k);
}

void
writeOperand(std::ostream &os, const Operand &o)
{
    switch (o.kind) {
      case OperandKind::REG:
        os << "r" << o.asReg();
        break;
      case OperandKind::IMM:
        os << o.value;
        break;
      case OperandKind::PRED:
        os << "p" << o.asPred();
        break;
      case OperandKind::SLOT:
        os << "s" << o.asSlot();
        break;
      default:
        LBP_PANIC("unserializable operand");
    }
}

void
writeOp(std::ostream &os, const Operation &op, const Function &fn,
        const Program &prog)
{
    os << "    ";
    if (op.hasGuard())
        os << "(p" << op.guard << ") ";
    if (op.sensitive)
        os << "sens ";
    os << opcodeName(op.op);
    if (op.op == Opcode::CMP || op.op == Opcode::BR ||
        op.op == Opcode::BR_WLOOP || op.op == Opcode::PRED_DEF ||
        op.op == Opcode::SELECT) {
        // SELECT has no condition, but keep the family check tight.
    }
    if (op.op == Opcode::CMP || op.op == Opcode::BR ||
        op.op == Opcode::BR_WLOOP || op.op == Opcode::PRED_DEF) {
        os << "." << condName(op.cond);
    }

    bool first = true;
    if (op.op == Opcode::PRED_DEF) {
        const PredDefKind kinds[2] = {op.defKind0, op.defKind1};
        for (size_t i = 0; i < op.dsts.size(); ++i) {
            os << (first ? " " : ", ");
            writeOperand(os, op.dsts[i]);
            os << ":" << defKindToken(kinds[i]);
            first = false;
        }
    } else {
        for (const auto &d : op.dsts) {
            os << (first ? " " : ", ");
            writeOperand(os, d);
            first = false;
        }
    }
    // The '=' separates destinations from sources; it is emitted
    // whenever destinations exist (even with no sources, e.g. a call
    // with only return values) so parsing stays unambiguous.
    if (!op.dsts.empty())
        os << " =";
    first = true;
    for (const auto &s : op.srcs) {
        os << (first ? " " : ", ");
        writeOperand(os, s);
        first = false;
    }
    if (op.target != kNoBlock)
        os << " -> " << fn.blocks[op.target].name;
    if (op.op == Opcode::CALL)
        os << " @" << prog.functions[op.callee].name;
    if (isBufferOp(op.op))
        os << " buf " << op.bufAddr << " n " << op.numOps;
    if (op.speculative)
        os << " spec";
    if (op.fromOuterLoop)
        os << " outer";
    os << "\n";
}

} // namespace

std::string
writeText(const Program &prog)
{
    std::ostringstream os;
    os << "program " << prog.name << "\n";
    os << "memory " << prog.memory.size() << "\n";
    if (prog.checksumSize > 0) {
        os << "checksum " << prog.checksumBase << " "
           << prog.checksumSize << "\n";
    }
    // Data image: emit non-zero runs as hex.
    const auto &mem = prog.memory;
    size_t i = 0;
    while (i < mem.size()) {
        if (mem[i] == 0) {
            ++i;
            continue;
        }
        size_t j = i;
        // Extend the run until 8+ consecutive zero bytes.
        size_t zeros = 0;
        size_t end = i;
        while (j < mem.size() && zeros < 8) {
            if (mem[j] == 0) {
                ++zeros;
            } else {
                zeros = 0;
                end = j + 1;
            }
            ++j;
        }
        os << "data " << i << " ";
        static const char hex[] = "0123456789abcdef";
        for (size_t k = i; k < end; ++k) {
            os << hex[mem[k] >> 4] << hex[mem[k] & 0xf];
        }
        os << "\n";
        i = end;
    }
    if (prog.entryFunc != kNoFunc) {
        os << "entry " << prog.functions[prog.entryFunc].name << "\n";
    }

    for (const auto &fn : prog.functions) {
        os << "\nfunc " << fn.name << " params(";
        for (size_t p = 0; p < fn.params.size(); ++p)
            os << (p ? ", r" : "r") << fn.params[p];
        os << ") rets " << fn.numReturns;
        if (fn.noInline)
            os << " noinline";
        os << "\n";
        for (const auto &bb : fn.blocks) {
            if (bb.dead)
                continue;
            os << "  block " << bb.name;
            if (bb.id == fn.entry)
                os << " entry";
            if (bb.isHyperblock)
                os << " hyperblock";
            os << "\n";
            for (const auto &op : bb.ops)
                writeOp(os, op, fn, prog);
            if (bb.fallthrough != kNoBlock) {
                os << "    falls " << fn.blocks[bb.fallthrough].name
                   << "\n";
            }
        }
    }
    return os.str();
}

namespace
{

// ---------------------------------------------------------------
// Parser
// ---------------------------------------------------------------

struct Parser
{
    explicit Parser(const std::string &text) : in(text) {}

    std::istringstream in;
    int lineNo = 0;
    std::string line;

    [[noreturn]] void fail(const std::string &msg)
    {
        LBP_FATAL("parse error at line ", lineNo, ": ", msg, " in '",
                  line, "'");
    }

    bool nextLine()
    {
        while (std::getline(in, line)) {
            ++lineNo;
            // Strip comments and whitespace-only lines.
            const auto hash = line.find(';');
            if (hash != std::string::npos)
                line = line.substr(0, hash);
            for (char c : line) {
                if (!std::isspace(static_cast<unsigned char>(c)))
                    return true;
            }
        }
        return false;
    }

    std::vector<std::string> tokenize() const
    {
        std::vector<std::string> toks;
        std::string cur;
        for (char c : line) {
            if (std::isspace(static_cast<unsigned char>(c)) ||
                c == ',') {
                if (!cur.empty()) {
                    toks.push_back(cur);
                    cur.clear();
                }
            } else {
                cur += c;
            }
        }
        if (!cur.empty())
            toks.push_back(cur);
        return toks;
    }
};

std::int64_t
parseInt(Parser &p, const std::string &tok)
{
    try {
        size_t pos = 0;
        const std::int64_t v = std::stoll(tok, &pos);
        if (pos != tok.size())
            p.fail("bad integer '" + tok + "'");
        return v;
    } catch (const std::invalid_argument &) {
        p.fail("bad integer '" + tok + "'");
    } catch (const std::out_of_range &) {
        p.fail("integer out of range '" + tok + "'");
    }
}

Operand
parseOperand(Parser &p, const std::string &tok)
{
    LBP_ASSERT(!tok.empty(), "empty operand token");
    if (tok[0] == 'r' && tok.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(tok[1]))) {
        return Operand::reg(
            static_cast<RegId>(parseInt(p, tok.substr(1))));
    }
    if (tok[0] == 'p' && tok.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(tok[1]))) {
        return Operand::pred(
            static_cast<PredId>(parseInt(p, tok.substr(1))));
    }
    if (tok[0] == 's' && tok.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(tok[1]))) {
        return Operand::slot(
            static_cast<int>(parseInt(p, tok.substr(1))));
    }
    return Operand::imm(parseInt(p, tok));
}

Opcode
opcodeFromName(Parser &p, const std::string &name)
{
    for (int i = 0; i < static_cast<int>(Opcode::NUM_OPCODES); ++i) {
        const Opcode oc = static_cast<Opcode>(i);
        if (name == opcodeName(oc))
            return oc;
    }
    p.fail("unknown opcode '" + name + "'");
}

CmpCond
condFromName(Parser &p, const std::string &name)
{
    for (CmpCond c : {CmpCond::EQ, CmpCond::NE, CmpCond::LT,
                      CmpCond::LE, CmpCond::GT, CmpCond::GE,
                      CmpCond::LTU, CmpCond::GEU, CmpCond::TRUE_,
                      CmpCond::FALSE_}) {
        if (name == condName(c))
            return c;
    }
    p.fail("unknown condition '" + name + "'");
}

PredDefKind
defKindFromName(Parser &p, const std::string &name)
{
    for (PredDefKind k : {PredDefKind::UT, PredDefKind::UF,
                          PredDefKind::OT, PredDefKind::OF,
                          PredDefKind::AT, PredDefKind::AF,
                          PredDefKind::CT, PredDefKind::CF}) {
        if (name == predDefKindName(k))
            return k;
    }
    p.fail("unknown pred-def kind '" + name + "'");
}

/** Pending fixups: block names resolve after all blocks are seen. */
struct OpFixup
{
    FuncId func;
    BlockId block;
    size_t opIdx;
    std::string targetName;  // branch target (empty = none)
    std::string calleeName;  // call target (empty = none)
};

} // namespace

Program
parseText(const std::string &text)
{
    Program prog;
    Parser p(text);

    std::string entryFuncName;
    std::vector<OpFixup> fixups;
    std::map<std::string, FuncId> funcByName;
    // Per-function block name maps.
    std::vector<std::map<std::string, BlockId>> blockByName;
    std::vector<std::string> fallFixupNames; // per (func,block)
    std::map<std::pair<FuncId, BlockId>, std::string> fallNames;

    FuncId curFunc = kNoFunc;
    BlockId curBlock = kNoBlock;

    while (p.nextLine()) {
        auto toks = p.tokenize();
        const std::string &kw = toks[0];

        if (kw == "program") {
            if (toks.size() != 2)
                p.fail("program <name>");
            prog.name = toks[1];
        } else if (kw == "memory") {
            if (toks.size() != 2)
                p.fail("memory <bytes>");
            const std::int64_t bytes = parseInt(p, toks[1]);
            if (bytes < 0)
                p.fail("negative memory size");
            prog.memory.assign(static_cast<size_t>(bytes), 0);
        } else if (kw == "checksum") {
            if (toks.size() != 3)
                p.fail("checksum <base> <size>");
            prog.checksumBase = parseInt(p, toks[1]);
            prog.checksumSize = parseInt(p, toks[2]);
        } else if (kw == "data") {
            if (toks.size() != 3)
                p.fail("data <addr> <hex>");
            std::int64_t addr = parseInt(p, toks[1]);
            const std::string &hex = toks[2];
            if (hex.size() % 2)
                p.fail("odd hex digit count");
            auto nib = [&](char c) -> int {
                if (c >= '0' && c <= '9')
                    return c - '0';
                if (c >= 'a' && c <= 'f')
                    return c - 'a' + 10;
                if (c >= 'A' && c <= 'F')
                    return c - 'A' + 10;
                p.fail("bad hex digit");
            };
            for (size_t i = 0; i < hex.size(); i += 2) {
                if (addr < 0 ||
                    static_cast<size_t>(addr) >= prog.memory.size())
                    p.fail("data outside memory");
                prog.memory[addr++] = static_cast<std::uint8_t>(
                    nib(hex[i]) * 16 + nib(hex[i + 1]));
            }
        } else if (kw == "entry") {
            if (toks.size() != 2)
                p.fail("entry <func>");
            entryFuncName = toks[1];
        } else if (kw == "func") {
            // func <name> params(rA, rB) rets N [noinline]
            if (toks.size() < 3)
                p.fail("func header too short");
            curFunc = prog.newFunction(toks[1]);
            funcByName[toks[1]] = curFunc;
            blockByName.emplace_back();
            Function &fn = prog.functions[curFunc];
            curBlock = kNoBlock;
            size_t t = 2;
            // params(...) may have been split by the tokenizer; glue
            // tokens until the closing paren.
            std::string params;
            for (; t < toks.size(); ++t) {
                if (!params.empty())
                    params += ',';
                params += toks[t];
                if (params.find(')') != std::string::npos) {
                    ++t;
                    break;
                }
            }
            const auto lp = params.find('(');
            const auto rp = params.find(')');
            if (params.rfind("params", 0) != 0 ||
                lp == std::string::npos || rp == std::string::npos)
                p.fail("expected params(...)");
            std::string inner = params.substr(lp + 1, rp - lp - 1);
            std::string cur;
            auto flushParam = [&]() {
                if (cur.empty())
                    return;
                if (cur[0] != 'r')
                    p.fail("bad param '" + cur + "'");
                const RegId r = static_cast<RegId>(
                    parseInt(p, cur.substr(1)));
                fn.params.push_back(r);
                fn.nextReg = std::max(fn.nextReg, r + 1);
                cur.clear();
            };
            for (char c : inner) {
                if (c == ',' || std::isspace(
                                    static_cast<unsigned char>(c))) {
                    flushParam();
                } else {
                    cur += c;
                }
            }
            flushParam();
            if (t + 1 >= toks.size() || toks[t] != "rets")
                p.fail("expected rets <n>");
            fn.numReturns = static_cast<int>(parseInt(p, toks[t + 1]));
            for (size_t u = t + 2; u < toks.size(); ++u) {
                if (toks[u] == "noinline")
                    fn.noInline = true;
                else
                    p.fail("unknown func attribute '" + toks[u] + "'");
            }
        } else if (kw == "block") {
            if (curFunc == kNoFunc)
                p.fail("block outside func");
            if (toks.size() < 2)
                p.fail("block <name> [entry] [hyperblock]");
            Function &fn = prog.functions[curFunc];
            curBlock = fn.newBlock(toks[1]);
            blockByName[curFunc][toks[1]] = curBlock;
            for (size_t t = 2; t < toks.size(); ++t) {
                if (toks[t] == "entry")
                    fn.entry = curBlock;
                else if (toks[t] == "hyperblock")
                    fn.blocks[curBlock].isHyperblock = true;
                else
                    p.fail("unknown block attribute '" + toks[t] +
                           "'");
            }
        } else if (kw == "falls") {
            if (curBlock == kNoBlock)
                p.fail("falls outside block");
            if (toks.size() != 2)
                p.fail("falls <block>");
            fallNames[{curFunc, curBlock}] = toks[1];
        } else {
            // An operation line.
            if (curBlock == kNoBlock)
                p.fail("operation outside block");
            Function &fn = prog.functions[curFunc];
            Operation op;
            size_t t = 0;

            // Guard: "(pN)".
            if (toks[t].size() > 2 && toks[t].front() == '(' &&
                toks[t].back() == ')') {
                const std::string g =
                    toks[t].substr(1, toks[t].size() - 2);
                if (g[0] != 'p')
                    p.fail("bad guard '" + toks[t] + "'");
                op.guard =
                    static_cast<PredId>(parseInt(p, g.substr(1)));
                ++t;
            }
            if (t < toks.size() && toks[t] == "sens") {
                op.sensitive = true;
                ++t;
            }
            if (t >= toks.size())
                p.fail("missing opcode");

            // Opcode[.cond].
            std::string ocName = toks[t++];
            // Note: br.cloop / br.wloop are opcode names that contain
            // a dot themselves; try the full token as an opcode
            // first.
            bool isFull = false;
            for (int i = 0;
                 i < static_cast<int>(Opcode::NUM_OPCODES); ++i) {
                if (ocName ==
                    opcodeName(static_cast<Opcode>(i)))
                    isFull = true;
            }
            if (!isFull) {
                const auto dot = ocName.find('.');
                if (dot != std::string::npos) {
                    op.cond = condFromName(p, ocName.substr(dot + 1));
                    ocName = ocName.substr(0, dot);
                }
            }
            op.op = opcodeFromName(p, ocName);

            // Destinations up to "=", then sources; suffixes after.
            std::vector<std::string> pre, post;
            bool sawEq = false;
            std::vector<std::string> suffix;
            for (; t < toks.size(); ++t) {
                if (toks[t] == "=") {
                    sawEq = true;
                    continue;
                }
                if (toks[t] == "->" || toks[t] == "buf" ||
                    toks[t] == "spec" || toks[t] == "outer" ||
                    toks[t][0] == '@') {
                    suffix.assign(toks.begin() + t, toks.end());
                    break;
                }
                (sawEq ? post : pre).push_back(toks[t]);
            }
            // Without "=", everything parsed into `pre` is a source
            // (branch compares, stores, rets, rec counts).
            const bool hasDsts = sawEq;
            const auto &dstToks = hasDsts ? pre
                                          : std::vector<std::string>{};
            const auto &srcToks = hasDsts ? post : pre;

            for (const auto &d : dstToks) {
                if (op.op == Opcode::PRED_DEF) {
                    const auto colon = d.find(':');
                    if (colon == std::string::npos)
                        p.fail("pred_def dst needs :kind");
                    const PredDefKind k =
                        defKindFromName(p, d.substr(colon + 1));
                    if (op.dsts.empty())
                        op.defKind0 = k;
                    else
                        op.defKind1 = k;
                    op.dsts.push_back(
                        parseOperand(p, d.substr(0, colon)));
                } else {
                    op.dsts.push_back(parseOperand(p, d));
                }
            }
            for (const auto &s : srcToks)
                op.srcs.push_back(parseOperand(p, s));

            OpFixup fx;
            fx.func = curFunc;
            fx.block = curBlock;
            for (size_t u = 0; u < suffix.size(); ++u) {
                if (suffix[u] == "->") {
                    if (u + 1 >= suffix.size())
                        p.fail("-> without target");
                    fx.targetName = suffix[++u];
                } else if (suffix[u] == "buf") {
                    if (u + 3 >= suffix.size() ||
                        suffix[u + 2] != "n")
                        p.fail("expected buf <addr> n <ops>");
                    op.bufAddr = static_cast<std::int32_t>(
                        parseInt(p, suffix[u + 1]));
                    op.numOps = static_cast<std::int32_t>(
                        parseInt(p, suffix[u + 3]));
                    u += 3;
                } else if (suffix[u] == "spec") {
                    op.speculative = true;
                } else if (suffix[u] == "outer") {
                    op.fromOuterLoop = true;
                } else if (suffix[u][0] == '@') {
                    fx.calleeName = suffix[u].substr(1);
                } else {
                    p.fail("unknown suffix '" + suffix[u] + "'");
                }
            }

            // Track register/pred high-water marks.
            auto bump = [&](const Operand &o) {
                if (o.isReg())
                    fn.nextReg = std::max(fn.nextReg, o.asReg() + 1);
                if (o.isPred())
                    fn.nextPred =
                        std::max(fn.nextPred, o.asPred() + 1);
            };
            for (const auto &o : op.dsts)
                bump(o);
            for (const auto &o : op.srcs)
                bump(o);
            if (op.guard != kNoPred) {
                fn.nextPred = std::max(fn.nextPred, op.guard + 1);
            }

            op.id = fn.newOpId();
            fn.blocks[curBlock].ops.push_back(std::move(op));
            if (!fx.targetName.empty() || !fx.calleeName.empty()) {
                fx.opIdx = fn.blocks[curBlock].ops.size() - 1;
                fixups.push_back(std::move(fx));
            }
        }
    }

    // Resolve names.
    auto blockId = [&](FuncId f, const std::string &name) -> BlockId {
        auto it = blockByName[f].find(name);
        if (it == blockByName[f].end()) {
            LBP_FATAL("unknown block '", name, "' in function ",
                      prog.functions[f].name);
        }
        return it->second;
    };
    for (const auto &fx : fixups) {
        Operation &op =
            prog.functions[fx.func].blocks[fx.block].ops[fx.opIdx];
        if (!fx.targetName.empty())
            op.target = blockId(fx.func, fx.targetName);
        if (!fx.calleeName.empty()) {
            auto it = funcByName.find(fx.calleeName);
            if (it == funcByName.end())
                LBP_FATAL("unknown callee '", fx.calleeName, "'");
            op.callee = it->second;
        }
    }
    for (const auto &[key, name] : fallNames) {
        prog.functions[key.first].blocks[key.second].fallthrough =
            blockId(key.first, name);
    }
    if (!entryFuncName.empty()) {
        auto it = funcByName.find(entryFuncName);
        if (it == funcByName.end())
            LBP_FATAL("unknown entry function '", entryFuncName, "'");
        prog.entryFunc = it->second;
    }
    return prog;
}

} // namespace lbp

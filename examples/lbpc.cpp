/**
 * @file
 * `lbpc` — a command-line driver over the textual IR format: load a
 * .lbp program, compile it at the chosen level, and report
 * buffer/cycle statistics or dump the transformed IR.
 *
 * Usage:
 *   example_lbpc <file.lbp|-> [--trad] [--buffer N] [--dump]
 *                [--emit] [--rotating] [--arg N]...
 *
 * With "-" the program text is read from stdin. --dump prints the
 * transformed IR; --emit prints it in the parseable text format.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/compiler.hh"
#include "ir/printer.hh"
#include "ir/serialize.hh"
#include "ir/verifier.hh"
#include "sim/vliw_sim.hh"

using namespace lbp;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <file.lbp|-> [--trad] [--buffer N] "
                     "[--dump] [--emit] [--rotating] [--arg N]...\n",
                     argv[0]);
        return 2;
    }

    std::string text;
    if (std::strcmp(argv[1], "-") == 0) {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
    } else {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }

    CompileOptions opts;
    int bufferOps = 256;
    bool dump = false, emit = false;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trad")) {
            opts.level = OptLevel::Traditional;
        } else if (!std::strcmp(argv[i], "--buffer") && i + 1 < argc) {
            bufferOps = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--dump")) {
            dump = true;
        } else if (!std::strcmp(argv[i], "--emit")) {
            emit = true;
        } else if (!std::strcmp(argv[i], "--rotating")) {
            opts.rotatingRegisters = true;
        } else if (!std::strcmp(argv[i], "--arg") && i + 1 < argc) {
            opts.profileArgs.push_back(std::atoll(argv[++i]));
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    opts.bufferOps = bufferOps;

    try {
        Program prog = parseText(text);
        // Structurally invalid input is a user error, not a compiler
        // bug: report it instead of letting compileProgram panic.
        if (const auto errs = verify(prog); !errs.empty()) {
            for (const auto &e : errs)
                std::fprintf(stderr, "error: %s\n", e.c_str());
            return 1;
        }
        CompileResult cr;
        compileProgram(prog, opts, cr);

        if (dump) {
            print(std::cout, cr.ir);
            return 0;
        }
        if (emit) {
            std::cout << writeText(cr.ir);
            return 0;
        }

        SimConfig sc;
        sc.bufferOps = bufferOps;
        VliwSim sim(cr.code, sc);
        const SimStats st = sim.run(opts.profileArgs);

        std::printf("program   : %s (%s, %d-op buffer)\n",
                    cr.ir.name.c_str(),
                    opts.level == OptLevel::Aggressive ? "aggressive"
                                                       : "traditional",
                    bufferOps);
        std::printf("static ops: %d -> %d (scheduled %d)\n",
                    cr.originalOps, cr.finalOps, cr.scheduledOps);
        std::printf("loops     : %d simple, %d pipelined, "
                    "%d if-converted, %d collapsed, %d peeled\n",
                    cr.simpleLoops, cr.moduloLoops,
                    cr.ifConvertStats.loopsConverted,
                    cr.collapseStats.loopsCollapsed,
                    cr.peelStats.loopsPeeled);
        std::printf("cycles    : %llu (%llu branch-penalty)\n",
                    (unsigned long long)st.cycles,
                    (unsigned long long)st.branchPenaltyCycles);
        std::printf("fetch     : %llu ops, %.1f%% from the loop "
                    "buffer\n",
                    (unsigned long long)st.opsFetched,
                    100.0 * st.bufferFraction());
        std::printf("checksum  : %016llx (%s)\n",
                    (unsigned long long)st.checksum,
                    st.checksum == cr.goldenChecksum ? "verified"
                                                     : "MISMATCH");
        if (!st.returns.empty())
            std::printf("returned  : %lld\n",
                        (long long)st.returns[0]);
        return st.checksum == cr.goldenChecksum ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

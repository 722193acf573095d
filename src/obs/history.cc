#include "obs/history.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "support/logging.hh"

namespace lbp
{
namespace obs
{

namespace
{

/** Escape one raw key segment for use inside a flattened key. */
std::string
escapeSegment(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '.')
            out += '\\';
        out += c;
    }
    return out;
}

/** The last segment of a flattened key, unescaped. */
std::string
lastSegment(const std::string &key)
{
    // Find the last '.' not preceded by an odd run of backslashes.
    std::size_t cut = std::string::npos;
    for (std::size_t i = 0; i < key.size(); ++i) {
        if (key[i] == '\\') {
            ++i; // skip the escaped character
            continue;
        }
        if (key[i] == '.')
            cut = i;
    }
    const std::string seg =
        cut == std::string::npos ? key : key.substr(cut + 1);
    std::string out;
    for (std::size_t i = 0; i < seg.size(); ++i) {
        if (seg[i] == '\\' && i + 1 < seg.size())
            ++i;
        out += seg[i];
    }
    return out;
}

bool
isIdentityRoot(const std::string &key)
{
    return key == "machine" || key == "git_sha" ||
           key == "schema_version" || key == "meta" ||
           key == "history_schema";
}

void
flattenInto(const Json &v, const std::string &prefix,
            std::vector<std::pair<std::string, Json>> &out)
{
    switch (v.kind()) {
      case Json::Kind::Object:
        for (const auto &kv : v.members()) {
            if (prefix.empty() && isIdentityRoot(kv.first))
                continue;
            // Histogram bin arrays are raw distribution data; the
            // longitudinal signal is their quantile summary, which is
            // flattened alongside.
            if (kv.first == "bins" &&
                kv.second.kind() == Json::Kind::Array)
                continue;
            flattenInto(kv.second,
                        flatJoin(prefix, escapeSegment(kv.first)),
                        out);
        }
        break;
      case Json::Kind::Array: {
        const auto &items = v.items();
        for (std::size_t i = 0; i < items.size(); ++i)
            flattenInto(items[i],
                        flatJoin(prefix, std::to_string(i)), out);
        break;
      }
      default:
        out.emplace_back(prefix, v);
        break;
    }
}

double
median(std::vector<double> xs)
{
    LBP_ASSERT(!xs.empty(), "median of empty sample");
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string
fmt(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Is this leaf a poisoned (NaN/inf) value? On disk it is JSON
 * `null`; an in-memory dump still holds the non-finite double.
 */
bool
nonFiniteLeaf(const Json &v)
{
    if (v.kind() == Json::Kind::Null)
        return true;
    return v.isNumber() && !std::isfinite(v.asDouble());
}

} // namespace

std::string
flatJoin(const std::string &prefix, const std::string &segment)
{
    return prefix.empty() ? segment : prefix + "." + segment;
}

std::vector<std::pair<std::string, Json>>
flattenLeaves(const Json &doc)
{
    std::vector<std::pair<std::string, Json>> out;
    flattenInto(doc, "", out);
    return out;
}

std::string
docSource(const Json &doc)
{
    if (const Json *b = doc.find("bench"))
        if (b->kind() == Json::Kind::String)
            return b->asString();
    if (doc.find("metrics")) {
        if (const Json *meta = doc.find("meta"))
            if (const Json *w = meta->find("workload"))
                if (w->kind() == Json::Kind::String)
                    return "registry:" + w->asString();
        return "registry";
    }
    return "doc";
}

const Json *
HistoryRecord::find(const std::string &key) const
{
    for (const auto &kv : values)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

HistoryRecord
makeHistoryRecord(const Json &doc, const std::string &sourceOverride)
{
    HistoryRecord rec;
    rec.source =
        sourceOverride.empty() ? docSource(doc) : sourceOverride;
    if (const Json *sha = doc.find("git_sha"))
        rec.gitSha = sha->kind() == Json::Kind::String
                         ? sha->asString()
                         : gitSha();
    else
        rec.gitSha = gitSha();
    if (const Json *m = doc.find("machine"))
        rec.machine = *m;
    for (auto &kv : flattenLeaves(doc))
        if (classifyKey(kv.first) != KeyClass::PerPoint)
            rec.values.push_back(std::move(kv));
    return rec;
}

Json
historyRecordToJson(const HistoryRecord &rec)
{
    Json j = Json::object();
    j.set("history_schema", Json::integer(rec.schema));
    j.set("git_sha", Json::str(rec.gitSha));
    j.set("source", Json::str(rec.source));
    if (rec.machine.kind() != Json::Kind::Null)
        j.set("machine", rec.machine);
    Json values = Json::object();
    for (const auto &kv : rec.values)
        values.set(kv.first, kv.second);
    j.set("values", std::move(values));
    return j;
}

bool
historyRecordFromJson(const Json &line, HistoryRecord &rec,
                      std::string &error)
{
    const Json *schema = line.find("history_schema");
    if (!schema || !schema->isNumber()) {
        error = "record lacks history_schema";
        return false;
    }
    rec.schema = static_cast<int>(schema->asInt());
    if (rec.schema > kHistorySchemaVersion) {
        error = "history_schema " + std::to_string(rec.schema) +
                " newer than supported " +
                std::to_string(kHistorySchemaVersion);
        return false;
    }
    if (const Json *sha = line.find("git_sha"))
        if (sha->kind() == Json::Kind::String)
            rec.gitSha = sha->asString();
    if (const Json *src = line.find("source"))
        if (src->kind() == Json::Kind::String)
            rec.source = src->asString();
    if (const Json *m = line.find("machine"))
        rec.machine = *m;
    const Json *values = line.find("values");
    if (!values || values->kind() != Json::Kind::Object) {
        error = "record lacks a values object";
        return false;
    }
    rec.values.clear();
    for (const auto &kv : values->members())
        rec.values.emplace_back(kv.first, kv.second);
    return true;
}

bool
appendHistory(const std::string &path, const HistoryRecord &rec,
              std::string &error)
{
    std::ofstream os(path, std::ios::app);
    if (!os) {
        error = "cannot open '" + path + "' for appending";
        return false;
    }
    historyRecordToJson(rec).writeCompact(os);
    os << "\n";
    if (!os.good()) {
        error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

std::vector<HistoryRecord>
loadHistory(const std::string &path, std::string &error)
{
    std::vector<HistoryRecord> out;
    error.clear();
    std::ifstream is(path);
    if (!is)
        return out; // absent store == empty history
    std::string line;
    int lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string parseError;
        const Json j = Json::parse(line, parseError);
        HistoryRecord rec;
        if (!parseError.empty() ||
            !historyRecordFromJson(j, rec, parseError)) {
            error = path + ":" + std::to_string(lineNo) + ": " +
                    parseError;
            return out;
        }
        out.push_back(std::move(rec));
    }
    return out;
}

bool
pruneHistory(const std::string &path, int keep, std::string &error,
             int *removed)
{
    if (removed)
        *removed = 0;
    if (keep < 1) {
        error = "keep must be >= 1, got " + std::to_string(keep);
        return false;
    }
    std::vector<HistoryRecord> recs = loadHistory(path, error);
    if (!error.empty())
        return false;

    // Count per source, then keep each record only while its source
    // still has more than `keep` newer records remaining. One reverse
    // pass (newest first) makes "newest N" natural.
    std::map<std::string, int> kept;
    std::vector<char> keepFlag(recs.size(), 0);
    for (std::size_t i = recs.size(); i-- > 0;) {
        if (kept[recs[i].source] < keep) {
            ++kept[recs[i].source];
            keepFlag[i] = 1;
        }
    }

    // Rewrite atomically: temp file beside the store, then rename.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os) {
            error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        for (std::size_t i = 0; i < recs.size(); ++i) {
            if (!keepFlag[i])
                continue;
            historyRecordToJson(recs[i]).writeCompact(os);
            os << "\n";
        }
        if (!os.good()) {
            error = "write to '" + tmp + "' failed";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        error = "cannot rename '" + tmp + "' over '" + path + "'";
        return false;
    }
    if (removed) {
        int k = 0;
        for (char f : keepFlag)
            k += f;
        *removed = static_cast<int>(recs.size()) - k;
    }
    return true;
}

/** True if any unescaped '.'-segment of the key is all digits —
 * i.e. the leaf sits under a JSON array index. */
static bool
hasNumericSegment(const std::string &key)
{
    bool inSeg = false, allDigits = true;
    for (std::size_t i = 0; i <= key.size(); ++i) {
        if (i == key.size() || key[i] == '.') {
            if (inSeg && allDigits)
                return true;
            inSeg = false;
            allDigits = true;
            continue;
        }
        if (key[i] == '\\') {
            ++i; // escaped char: part of the segment, never a digit
            allDigits = false;
            inSeg = true;
            continue;
        }
        inSeg = true;
        if (key[i] < '0' || key[i] > '9')
            allDigits = false;
    }
    return false;
}

KeyClass
classifyKey(const std::string &key)
{
    const std::string seg = lastSegment(key);
    if (seg == "threads" || seg == "description" || key == "bench")
        return KeyClass::Identity;
    // Per-workload drill-down blocks (e.g. the sim_fastpath
    // trace_cache.per_workload.* coverage split) are recorded but
    // never gated: the gated signal is the aggregate, and holding
    // each workload's leaf exactly would turn every workload add or
    // rename into a history break.
    if (key.find(".per_workload.") != std::string::npos)
        return KeyClass::PerPoint;
    // Bench docs use camelCase "...Ms" leaves; registry phase timers
    // are gauges named "compile.phase.NN_stage.ms", which flatten to
    // ONE escaped segment — so match ".ms" as a suffix of the
    // unescaped segment, not as a segment of its own.
    auto endsWith = [&](const char *suf) {
        const size_t n = std::strlen(suf);
        return seg.size() >= n &&
               seg.compare(seg.size() - n, n, suf) == 0;
    };
    if (seg == "ms" || seg == "speedup" || endsWith(".ms") ||
        endsWith(".speedup") || endsWith("Ms"))
        return hasNumericSegment(key) ? KeyClass::PerPoint
                                      : KeyClass::Timing;
    return KeyClass::Exact;
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Ok: return "ok";
      case Verdict::Improved: return "improved";
      case Verdict::Regressed: return "REGRESSED";
      case Verdict::ExactMismatch: return "EXACT-MISMATCH";
      case Verdict::NonFinite: return "NON-FINITE";
      case Verdict::MissingKey: return "MISSING-KEY";
      case Verdict::NewKey: return "new-key";
      case Verdict::NoBaseline: return "no-baseline";
    }
    return "?";
}

bool
verdictFails(Verdict v)
{
    return v == Verdict::Regressed || v == Verdict::ExactMismatch ||
           v == Verdict::NonFinite || v == Verdict::MissingKey;
}

bool
CheckReport::failed() const
{
    for (const auto &kv : verdicts)
        if (verdictFails(kv.verdict))
            return true;
    return false;
}

namespace
{

/** Judge one timing-class key against its window. */
KeyVerdict
judgeTiming(const std::string &key, const Json &cur,
            const std::vector<const HistoryRecord *> &records,
            const CheckPolicy &policy)
{
    KeyVerdict kv;
    kv.key = key;
    kv.cls = KeyClass::Timing;

    if (nonFiniteLeaf(cur)) {
        // Null on disk, or a still-in-memory NaN/inf double: either
        // way NaN compares false against every threshold, so without
        // this check a poisoned gauge would sail through as Ok.
        kv.verdict = Verdict::NonFinite;
        kv.detail = "current value is non-finite (NaN/inf gauge)";
        return kv;
    }
    if (!cur.isNumber()) {
        // A timing-suffixed string is nonsense; treat exact-style.
        kv.verdict = Verdict::Ok;
        kv.detail = "non-numeric timing key ignored";
        return kv;
    }
    kv.current = cur.asDouble();

    // Newest-first finite samples, capped at the window size.
    std::vector<double> window;
    for (auto it = records.rbegin();
         it != records.rend() &&
         static_cast<int>(window.size()) < policy.window;
         ++it) {
        const Json *v = (*it)->find(key);
        if (v && v->isNumber() && std::isfinite(v->asDouble()))
            window.push_back(v->asDouble());
    }
    kv.samples = static_cast<int>(window.size());
    if (window.empty()) {
        kv.verdict = Verdict::NoBaseline;
        return kv;
    }

    const double m = median(window);
    std::vector<double> devs;
    devs.reserve(window.size());
    for (double x : window)
        devs.push_back(std::fabs(x - m));
    const double mad = median(devs);

    kv.baseline = m;
    kv.spread = mad;
    kv.threshold = std::max(
        {policy.absTol, policy.relTol * std::fabs(m),
         policy.madK * 1.4826 * mad});

    // Direction of badness: speedups regress downward, everything
    // else (milliseconds) regresses upward.
    const std::string seg = lastSegment(key);
    const bool lowerIsWorse =
        seg == "speedup" ||
        (seg.size() >= 8 &&
         seg.compare(seg.size() - 8, 8, ".speedup") == 0);
    const double delta = kv.current - m;
    const double worse = lowerIsWorse ? -delta : delta;

    std::ostringstream d;
    d << fmt(kv.current) << " vs median " << fmt(m) << " of "
      << kv.samples << " (MAD " << fmt(mad) << ", threshold "
      << fmt(kv.threshold) << ")";
    kv.detail = d.str();

    if (worse > kv.threshold)
        kv.verdict = Verdict::Regressed;
    else if (-worse > kv.threshold)
        kv.verdict = Verdict::Improved;
    else
        kv.verdict = Verdict::Ok;
    return kv;
}

/** Judge one exact-class key against the latest record holding it. */
KeyVerdict
judgeExact(const std::string &key, const Json &cur,
           const std::vector<const HistoryRecord *> &records)
{
    KeyVerdict kv;
    kv.key = key;
    kv.cls = KeyClass::Exact;

    if (nonFiniteLeaf(cur)) {
        kv.verdict = Verdict::NonFinite;
        kv.detail = "current value is non-finite (NaN/inf gauge)";
        return kv;
    }
    if (cur.isNumber())
        kv.current = cur.asDouble();

    const Json *base = nullptr;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        if (const Json *v = (*it)->find(key)) {
            base = v;
            break;
        }
    }
    if (!base) {
        kv.verdict = Verdict::NoBaseline;
        return kv;
    }
    kv.samples = 1;
    if (base->isNumber())
        kv.baseline = base->asDouble();

    if (nonFiniteLeaf(*base)) {
        // The store holds a poisoned sample; a now-finite value is a
        // recovery, not a regression.
        kv.verdict = Verdict::Ok;
        kv.detail = "recovered from non-finite baseline";
        return kv;
    }
    if (*base == cur) {
        kv.verdict = Verdict::Ok;
        return kv;
    }
    kv.verdict = Verdict::ExactMismatch;
    kv.detail = cur.dump() + " vs latest " + base->dump();
    return kv;
}

} // namespace

CheckReport
checkAgainstHistory(const std::vector<HistoryRecord> &history,
                    const Json &currentDoc, const CheckPolicy &policy)
{
    CheckReport report;
    report.source = docSource(currentDoc);

    std::vector<const HistoryRecord *> records;
    for (const auto &rec : history)
        if (rec.source == report.source)
            records.push_back(&rec);
    report.baselineRecords = static_cast<int>(records.size());

    const auto current = flattenLeaves(currentDoc);

    for (const auto &kv : current) {
        const KeyClass cls = classifyKey(kv.first);
        if (cls == KeyClass::Identity || cls == KeyClass::PerPoint)
            continue;
        KeyVerdict v =
            cls == KeyClass::Timing
                ? judgeTiming(kv.first, kv.second, records, policy)
                : judgeExact(kv.first, kv.second, records);
        if (v.verdict == Verdict::NoBaseline && !records.empty())
            v.verdict = Verdict::NewKey;
        report.verdicts.push_back(std::move(v));
    }

    // Keys the latest same-source record holds but the current doc
    // lost. Older records' keys may be legitimately obsolete; only
    // the newest defines the expected shape.
    if (!records.empty()) {
        const HistoryRecord &latest = *records.back();
        for (const auto &kv : latest.values) {
            const KeyClass cls = classifyKey(kv.first);
            if (cls == KeyClass::Identity || cls == KeyClass::PerPoint)
                continue;
            bool present = false;
            for (const auto &ckv : current) {
                if (ckv.first == kv.first) {
                    present = true;
                    break;
                }
            }
            if (!present) {
                KeyVerdict v;
                v.key = kv.first;
                v.cls = classifyKey(kv.first);
                v.verdict = Verdict::MissingKey;
                v.detail = "present in latest record, absent now";
                report.verdicts.push_back(std::move(v));
            }
        }
    }
    return report;
}

void
CheckReport::print(std::ostream &os, bool verbose) const
{
    os << "history check: source=" << source << ", "
       << baselineRecords << " baseline record(s), "
       << verdicts.size() << " key(s)\n";
    int counts[8] = {};
    for (const auto &kv : verdicts)
        ++counts[static_cast<int>(kv.verdict)];
    for (const auto &kv : verdicts) {
        const bool interesting = verdictFails(kv.verdict) ||
                                 kv.verdict == Verdict::Improved;
        if (!interesting && !verbose)
            continue;
        os << "  " << verdictName(kv.verdict) << "  " << kv.key;
        if (!kv.detail.empty())
            os << ": " << kv.detail;
        os << "\n";
    }
    os << "  summary:";
    static const Verdict order[] = {
        Verdict::Regressed, Verdict::ExactMismatch,
        Verdict::NonFinite, Verdict::MissingKey, Verdict::Improved,
        Verdict::NewKey,    Verdict::NoBaseline, Verdict::Ok};
    for (Verdict v : order) {
        const int n = counts[static_cast<int>(v)];
        if (n)
            os << " " << verdictName(v) << "=" << n;
    }
    os << "\n"
       << "verdict: " << (failed() ? "FAIL" : "PASS") << "\n";
}

Json
CheckReport::toJson() const
{
    Json root = Json::object();
    root.set("history_schema", Json::integer(kHistorySchemaVersion));
    stampVersion(root);
    root.set("source", Json::str(source));
    root.set("baseline_records", Json::integer(baselineRecords));
    root.set("failed", Json::boolean(failed()));
    Json arr = Json::array();
    for (const auto &kv : verdicts) {
        // The machine-readable form carries only non-Ok verdicts;
        // the Ok count is recoverable from totals and keeps the
        // document small.
        if (kv.verdict == Verdict::Ok)
            continue;
        Json v = Json::object();
        v.set("key", Json::str(kv.key));
        v.set("class", Json::str(kv.cls == KeyClass::Timing
                                     ? "timing"
                                     : "exact"));
        v.set("verdict", Json::str(verdictName(kv.verdict)));
        v.set("baseline", Json::number(kv.baseline));
        v.set("spread", Json::number(kv.spread));
        v.set("current", Json::number(kv.current));
        v.set("threshold", Json::number(kv.threshold));
        v.set("samples", Json::integer(kv.samples));
        if (!kv.detail.empty())
            v.set("detail", Json::str(kv.detail));
        arr.push(std::move(v));
    }
    root.set("verdicts", std::move(arr));
    root.set("keys_checked",
             Json::integer(static_cast<std::int64_t>(
                 verdicts.size())));
    return root;
}

} // namespace obs
} // namespace lbp

#include "spans.hh"

#include <atomic>
#include <chrono>
#include <fstream>

#include "obs/json.hh"

namespace perfbench
{

double
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch)
        .count();
}

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

Scope::Scope(SpanLog &log, const char *name) : log_(log)
{
    if (!log_.on)
        return;
    id_ = static_cast<int>(log_.spans.size());
    Span s;
    s.name = name;
    s.parent = log_.open;
    s.t0 = nowUs();
    log_.spans.push_back(s);
    log_.open = id_;
}

Scope::~Scope()
{
    if (id_ < 0)
        return;
    Span &s = log_.spans[static_cast<std::size_t>(id_)];
    s.t1 = nowUs();
    log_.open = s.parent;
}

void
addSelfTimes(const SpanLog &log, std::map<std::string, double> &selfUs)
{
    std::vector<double> self(log.spans.size());
    for (std::size_t i = 0; i < log.spans.size(); ++i)
        self[i] = log.spans[i].t1 - log.spans[i].t0;
    for (const Span &s : log.spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    for (std::size_t i = 0; i < log.spans.size(); ++i)
        selfUs[log.spans[i].name] += self[i];
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs)
{
    using lbp::obs::Json;
    Json events = Json::array();
    Json proc = Json::object();
    proc.set("name", Json::str("process_name"));
    proc.set("ph", Json::str("M"));
    proc.set("pid", Json::integer(1));
    Json pargs = Json::object();
    pargs.set("name", Json::str("lbp_perfbench"));
    proc.set("args", std::move(pargs));
    events.push(std::move(proc));
    for (const SpanLog *log : logs) {
        for (std::size_t i = 0; i < log->spans.size(); ++i) {
            const Span &s = log->spans[i];
            Json e = Json::object();
            e.set("name", Json::str(s.name));
            e.set("ph", Json::str("X"));
            e.set("pid", Json::integer(1));
            e.set("tid", Json::integer(log->tid));
            e.set("ts", Json::number(s.t0));
            e.set("dur", Json::number(s.t1 - s.t0));
            Json args = Json::object();
            args.set("job", Json::integer(log->job));
            args.set("span", Json::integer(static_cast<int>(i)));
            args.set("parent", Json::integer(s.parent));
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    Json root = Json::object();
    root.set("displayTimeUnit", Json::str("ms"));
    root.set("traceEvents", std::move(events));
    std::ofstream os(path);
    if (!os)
        return false;
    root.writeCompact(os);
    os << "\n";
    return os.good();
}

} // namespace perfbench

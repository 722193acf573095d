/**
 * @file
 * In-memory span recording for the benchmark's traced mode: one span
 * per call into a layer's public function, recorded from outside the
 * library (nothing under src/ is instrumented for this). Spans carry
 * name, start, end, the enclosing span and the job id; they are kept
 * in memory and written out once, as Chrome trace-event JSON, when the
 * run ends.
 */

#ifndef LBP_PERFBENCH_SPANS_HH
#define LBP_PERFBENCH_SPANS_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Microseconds on the steady clock since the first call. */
double nowUs();

/** Small dense id of the calling thread (0 for the first caller). */
int threadIndex();

struct Span
{
    const char *name = nullptr; ///< static layer name
    double t0 = 0;              ///< start, nowUs()
    double t1 = 0;              ///< end, nowUs()
    int parent = -1;            ///< index in the same log, -1 = root
};

/**
 * The spans of one job (or of set-up), owned by the thread running
 * it. A disabled log records nothing, so the untraced path pays one
 * branch per Scope.
 */
struct SpanLog
{
    bool on = false;
    int job = -1; ///< -1 for set-up
    int tid = 0;
    std::vector<Span> spans;
    int open = -1; ///< innermost open span
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int id_ = -1;
};

/**
 * Add each span's self time (its duration minus its direct children's
 * durations) to @p selfUs under the span's name. Children of one span
 * run on the same thread one after another, so they never overlap.
 */
void addSelfTimes(const SpanLog &log,
                  std::map<std::string, double> &selfUs);

/**
 * Write @p logs as Chrome trace-event JSON ("X" complete events, one
 * track per thread), loadable in Perfetto like `lbp_stats trace`
 * output. Returns false on an I/O error.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // LBP_PERFBENCH_SPANS_HH

/**
 * @file
 * Stage verification for the compilation pipeline: after each
 * transform, the program must still produce the input program's
 * checksum on the profile arguments.
 *
 * The verifier keeps the decoded image (ir/decoded_interpreter.hh) of
 * the last program it verified. A stage whose image is equal to that
 * one is skipped: the decoded interpreter is a pure function of
 * (image, args), so an equal image has the same checksum. That makes
 * the skip an exact shortcut, not a looser check. Every other stage
 * is re-interpreted and must match the golden checksum, or compiling
 * fails with an LBP_FATAL naming the stage.
 */

#ifndef LBP_CORE_STAGE_VERIFIER_HH
#define LBP_CORE_STAGE_VERIFIER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/decoded_interpreter.hh"

namespace lbp
{

namespace obs
{
class Registry;
}

class StageVerifier
{
  public:
    /**
     * Profile the pipeline input @p prog with @p args: interpret it,
     * annotate its block weights, and take its checksum as the golden
     * and its image as the last verified program. With @p enabled
     * false, check() does nothing.
     */
    StageVerifier(Program &prog, std::vector<std::int64_t> args,
                  bool enabled);

    std::uint64_t golden() const { return golden_; }

    /** Verify @p prog after @p stage (skipped if its image is unchanged). */
    void check(const Program &prog, const char *stage);

    /**
     * Re-profile the final program: annotate its block weights and
     * check its checksum as the result of @p stage, whose own check
     * this run replaces. Mismatches are fatal even when disabled.
     */
    ExecResult reprofile(Program &prog, const char *stage);

    /** Checks that interpreted a changed program. */
    unsigned runs() const { return runs_; }

    /** Checks skipped because the program was unchanged. */
    unsigned skipped() const { return skipped_; }

    /**
     * Publish compile.verify.runs / .skipped, the .ms gauge (time in
     * check()), and the per-stage outcomes as the info
     * compile.verify.stages ("stage=run|skip ...", pipeline order).
     */
    void publish(obs::Registry &r) const;

  private:
    void verdict(const char *stage, std::uint64_t checksum,
                 const Program &prog) const;

    std::vector<std::int64_t> args_;
    bool enabled_;
    DecodedInterpreter last_;
    std::uint64_t golden_ = 0;
    unsigned runs_ = 0;
    unsigned skipped_ = 0;
    double ms_ = 0;
    std::string stages_;
};

} // namespace lbp

#endif // LBP_CORE_STAGE_VERIFIER_HH

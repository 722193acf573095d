#include "core/stage_verifier.hh"

#include <chrono>

#include "obs/registry.hh"
#include "support/logging.hh"

namespace lbp
{

StageVerifier::StageVerifier(Program &prog, std::vector<std::int64_t> args,
                             bool enabled)
    : args_(std::move(args)), enabled_(enabled), last_(prog)
{
    golden_ = last_.run(args_).checksum;
    last_.annotate(prog);
}

void
StageVerifier::verdict(const char *stage, std::uint64_t checksum,
                       const Program &prog) const
{
    if (checksum != golden_) {
        LBP_FATAL("semantic checksum mismatch after stage '", stage,
                  "' in program '", prog.name, "': golden=", golden_,
                  " got=", checksum);
    }
}

void
StageVerifier::check(const Program &prog, const char *stage)
{
    if (!enabled_)
        return;
    const auto t0 = std::chrono::steady_clock::now();
    IrImage image = decodeIr(prog);
    const bool same = image == last_.image();
    if (same) {
        ++skipped_;
    } else {
        DecodedInterpreter interp(std::move(image));
        verdict(stage, interp.run(args_).checksum, prog);
        last_ = std::move(interp);
        ++runs_;
    }
    stages_ += std::string(stages_.empty() ? "" : " ") + stage +
               (same ? "=skip" : "=run");
    ms_ += std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
}

ExecResult
StageVerifier::reprofile(Program &prog, const char *stage)
{
    last_ = DecodedInterpreter(prog);
    const ExecResult r = last_.run(args_);
    last_.annotate(prog);
    verdict(stage, r.checksum, prog);
    if (enabled_) {
        ++runs_;
        stages_ += std::string(stages_.empty() ? "" : " ") + stage + "=run";
    }
    return r;
}

void
StageVerifier::publish(obs::Registry &r) const
{
    r.counter("compile.verify.runs").set(runs_);
    r.counter("compile.verify.skipped").set(skipped_);
    r.gauge("compile.verify.ms").set(ms_);
    r.info("compile.verify.stages", stages_);
}

} // namespace lbp

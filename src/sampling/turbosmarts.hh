/**
 * @file
 * The TurboSMARTS baseline (Wenisch et al., ISPASS 2006): process
 * checkpointed sampling units in random order until the sample-mean
 * confidence interval converges (the paper's experiments used +/-3%
 * at 99.7%). Here the candidate population is the per-sample CPI
 * vector a SMARTS pass measured once; each drawn sample is charged
 * one detailed-sample unit (sim::kSampleOps: warm-up plus measured
 * window), matching the paper's live-points accounting
 * (fast-forwarding is eliminated by the checkpoints). DESIGN.md
 * section 2 documents this substitution.
 */

#ifndef PGSS_SAMPLING_TURBOSMARTS_HH
#define PGSS_SAMPLING_TURBOSMARTS_HH

#include <cstdint>
#include <vector>

#include "sampling/sampler.hh"

namespace pgss::sampling
{

/** TurboSMARTS's CI confidence level (the paper's 99.7%). */
inline constexpr double kTurboConfidence = 0.997;
/** TurboSMARTS's default CI half-width target (the paper's 3%). */
inline constexpr double kTurboRelativeError = 0.03;

/** TurboSMARTS parameters; the confidence is kTurboConfidence. */
struct TurboSmartsConfig
{
    double relative_error = kTurboRelativeError; ///< CI half-width
    std::uint64_t min_samples = 8; ///< draw at least this many
    std::uint64_t seed = 0x712b05; ///< random-order draw seed
};

/**
 * Draw from @p sample_cpis (one entry per candidate sampling unit, in
 * position order) in random order until the CI converges or the
 * population is exhausted.
 */
SamplerResult runTurboSmarts(const std::vector<double> &sample_cpis,
                             const TurboSmartsConfig &config = {});

} // namespace pgss::sampling

#endif // PGSS_SAMPLING_TURBOSMARTS_HH

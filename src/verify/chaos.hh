/**
 * @file
 * Kill-and-resume soak: end-to-end proof that the sweep journal and the
 * shared cancel token preserve sweep correctness when a sweep is killed
 * mid-flight. A soak runs the same policy sweep twice:
 *
 *  1. a clean, serial, unjournaled run — the ground truth;
 *  2. a journaled run on a worker pool, killed mid-sweep in each round
 *     (in-flight runs abort, later jobs start already cancelled) and
 *     reopened from disk the way --resume would, then resumed to
 *     completion.
 *
 * The harness asserts the final merged results are bit-identical to the
 * clean run, field by field.
 */

#ifndef FINEREG_VERIFY_CHAOS_HH
#define FINEREG_VERIFY_CHAOS_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace finereg
{

struct ChaosOptions
{
    /** Killed-and-resumed rounds before the final resume. */
    unsigned rounds = 2;

    /** Policies swept (each over the full 18-app suite). */
    std::vector<PolicyKind> policies{PolicyKind::Baseline,
                                     PolicyKind::FineReg};

    /** Grid scale for every run (small keeps the soak fast). */
    double gridScale = 0.04;

    /** Worker count for the journaled rounds (the baseline is serial). */
    unsigned jobs = 4;

    /** Wall-clock delay before round r's kill is (r + 1) times this. */
    double killDelayMs = 50.0;

    /** Journal path for the killed/resumed rounds (a .sweep.jsonl file;
     * deleted and recreated at soak start). */
    std::string journalPath = "chaos.sweep.jsonl";
};

struct ChaosReport
{
    bool passed = false;

    unsigned totalJobs = 0;    ///< Cells per sweep (configs x apps).
    unsigned killedJobs = 0;   ///< Cancelled results across killed rounds.
    unsigned replayedJobs = 0; ///< Journal replays in the final round.

    /** Human-readable failures; empty when passed. */
    std::vector<std::string> mismatches;

    /** One-paragraph outcome for logs. */
    std::string summary() const;
};

/** Run the soak described above. */
ChaosReport runChaosSoak(const ChaosOptions &options);

/**
 * Field-by-field comparison of two results, ignoring how the result was
 * obtained (fromJournal) and wall-clock artefacts. Returns an empty string
 * when bit-identical, else a "field: a vs b" description.
 */
std::string compareSimResults(const SimResult &a, const SimResult &b);

} // namespace finereg

#endif // FINEREG_VERIFY_CHAOS_HH

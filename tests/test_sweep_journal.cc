/**
 * @file
 * SweepJournal unit tests: content-addressed keys, bit-exact JSON
 * round-trips (every double through %.17g), append/reload with
 * latest-entry-wins, torn-line tolerance, stale-version rejection, and
 * journal-backed sweep jobs (Experiment::makeSweepJob): replay on resume,
 * wall-clock budget expiry, and the shared kill switch.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "core/experiment.hh"
#include "core/simulator.hh"
#include "core/sweep_journal.hh"
#include "ref/kernel_gen.hh"
#include "verify/chaos.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

/** A suite app at scale 1.0: its run takes tens of milliseconds, so a
 * 1 ms budget or a kill a few milliseconds in always lands mid-run. */
std::shared_ptr<const Kernel>
fullScaleKernel()
{
    return Suite::makeKernel(Suite::byName("LI"), 1.0);
}

TEST(SweepJournal, KeyIsContentAddressed)
{
    const auto kernel = generateKernelSpec(0xbeef).build();
    GpuConfig config = GpuConfig::gtx980();
    config.policy.kind = PolicyKind::FineReg;

    const std::string base = makeSweepJobKey(*kernel, config).toString();
    EXPECT_EQ(base, makeSweepJobKey(*kernel, config).toString());

    // Each key part responds to its own input.
    GpuConfig other = config;
    other.seed ^= 1;
    EXPECT_NE(base, makeSweepJobKey(*kernel, other).toString());

    other = config;
    other.policy.kind = PolicyKind::Baseline;
    EXPECT_NE(base, makeSweepJobKey(*kernel, other).toString());

    other = config;
    other.numSms += 1;
    EXPECT_NE(base, makeSweepJobKey(*kernel, other).toString());

    const auto kernel2 = generateKernelSpec(0xbeef + 1).build();
    EXPECT_NE(base, makeSweepJobKey(*kernel2, config).toString());
}

TEST(SweepJournal, RuntimeOnlyKnobsDoNotChangeTheKey)
{
    // The wall-clock budget and the cancel token can abort a run but never
    // change a completed one, so a resume without them (or with different
    // ones) must keep the job's identity.
    const auto kernel = generateKernelSpec(0xbeef).build();
    GpuConfig config = GpuConfig::gtx980();
    config.policy.kind = PolicyKind::FineReg;
    const std::string base = makeSweepJobKey(*kernel, config).toString();

    GpuConfig armed = config;
    armed.verify.cancel = std::make_shared<CancelToken>();
    armed.verify.wallTimeoutMs = 1.0;
    EXPECT_EQ(base, makeSweepJobKey(*kernel, armed).toString());

    // The in-simulation fault schedule DOES affect results, so it is part
    // of the key.
    GpuConfig faulted = config;
    faulted.verify.fault.seed = 7;
    EXPECT_NE(base, makeSweepJobKey(*kernel, faulted).toString());
}

TEST(SweepJournal, EntryJsonRoundTripsBitExactly)
{
    const auto kernel = generateKernelSpec(0xf00d).build();
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = PolicyKind::FineReg;
    SimResult result = Simulator::run(config, *kernel);
    ASSERT_FALSE(result.failed) << result.failureReason;

    JournalEntry entry;
    entry.key = makeSweepJobKey(*kernel, config).toString();
    entry.app = "GEN";
    entry.status = "ok";
    entry.wallMs = 123.4567890123456789; // deliberately not representable
    entry.result = result;

    const std::string line = journalEntryToJson(entry);
    const auto parsed = journalEntryFromJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->key, entry.key);
    EXPECT_EQ(parsed->app, "GEN");
    EXPECT_TRUE(parsed->ok());
    EXPECT_EQ(std::memcmp(&parsed->wallMs, &entry.wallMs, sizeof(double)),
              0);
    EXPECT_TRUE(parsed->result.fromJournal);
    EXPECT_EQ(compareSimResults(result, parsed->result), "");
}

TEST(SweepJournal, FailedEntryPreservesErrorKindAndMessage)
{
    JournalEntry entry;
    entry.key = "k1-c1-finereg-s1";
    entry.app = "BF";
    entry.status = "failed";
    entry.result.failed = true;
    entry.result.error.kind = SimErrorKind::Timeout;
    entry.result.error.message =
        "budget \"exceeded\"\n\tafter 500 ms \\ at cycle 3";

    const auto parsed = journalEntryFromJson(journalEntryToJson(entry));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok());
    EXPECT_TRUE(parsed->result.failed);
    EXPECT_EQ(parsed->result.error.kind, SimErrorKind::Timeout);
    EXPECT_EQ(parsed->result.error.message, entry.result.error.message);
}

TEST(SweepJournal, AppendReloadLatestEntryWins)
{
    const std::string path = tempPath("journal_reload.sweep.jsonl");
    std::remove(path.c_str());
    std::string error;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        EXPECT_EQ(journal->size(), 0u);

        JournalEntry e;
        e.key = "k1-c1-finereg-s1";
        e.app = "AA";
        e.status = "failed";
        e.result.failed = true;
        e.result.error.kind = SimErrorKind::Timeout;
        journal->append(e);

        // A later success for the same key supersedes the failure.
        e.status = "ok";
        e.result = SimResult{};
        e.result.ipc = 1.25;
        journal->append(e);

        JournalEntry other;
        other.key = "k2-c2-baseline-s1";
        other.app = "BB";
        other.status = "ok";
        journal->append(other);

        EXPECT_EQ(journal->size(), 2u);
        EXPECT_EQ(journal->completedCount(), 2u);
    }

    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->size(), 2u);
    EXPECT_EQ(journal->completedCount(), 2u);
    const JournalEntry *latest = journal->find("k1-c1-finereg-s1");
    ASSERT_NE(latest, nullptr);
    EXPECT_TRUE(latest->ok());
    EXPECT_EQ(latest->result.ipc, 1.25);
    EXPECT_EQ(journal->find("k3-missing"), nullptr);
    std::remove(path.c_str());
}

TEST(SweepJournal, TornTrailingLineIsDroppedNotFatal)
{
    const std::string path = tempPath("journal_torn.sweep.jsonl");
    std::remove(path.c_str());
    std::string error;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        JournalEntry e;
        e.key = "k1-c1-finereg-s1";
        e.app = "AA";
        e.status = "ok";
        journal->append(e);
    }
    // Simulate a crash mid-append: half a JSON object, no newline.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"key\":\"k2-c2-base";
    }

    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->size(), 1u);
    EXPECT_NE(journal->find("k1-c1-finereg-s1"), nullptr);
    std::remove(path.c_str());
}

TEST(SweepJournal, StaleSchemaVersionIsRejectedWithClearError)
{
    const std::string path = tempPath("journal_stale.sweep.jsonl");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"finereg-sweep-journal\",\"version\":99}\n";
    }
    std::string error;
    auto journal = SweepJournal::open(path, error);
    EXPECT_EQ(journal, nullptr);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SweepJournal, ForeignSchemaIsRejected)
{
    const std::string path = tempPath("journal_foreign.sweep.jsonl");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"someone-elses-log\",\"version\":1}\n";
    }
    std::string error;
    auto journal = SweepJournal::open(path, error);
    EXPECT_EQ(journal, nullptr);
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SweepJournal, GuardedJobsReplayBitIdenticallyOnResume)
{
    const std::string path = tempPath("journal_resume.sweep.jsonl");
    std::remove(path.c_str());

    std::shared_ptr<const Kernel> kernel =
        Suite::makeKernel(Suite::byName("BF"), 0.05);
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = PolicyKind::FineReg;

    std::string error;
    SimResult fresh;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        fresh =
            Experiment::makeSweepJob(kernel, config, "BF", journal.get())();
        ASSERT_FALSE(fresh.failed) << fresh.failureReason;
        EXPECT_FALSE(fresh.fromJournal);
        EXPECT_EQ(journal->completedCount(), 1u);
    }

    // A second process resuming from the journal replays the result
    // without re-simulating (fromJournal is only set on entries read back
    // from disk), bit-identically.
    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    const SimResult replayed =
        Experiment::makeSweepJob(kernel, config, "BF", journal.get())();
    EXPECT_TRUE(replayed.fromJournal);
    EXPECT_EQ(compareSimResults(fresh, replayed), "");
    std::remove(path.c_str());
}

TEST(SweepJournal, DeadlineTimeoutIsJournaledAsFailed)
{
    const std::string path = tempPath("journal_deadline.sweep.jsonl");
    std::remove(path.c_str());
    const auto kernel = fullScaleKernel();
    GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
    config.verify.wallTimeoutMs = 1.0;

    std::string error;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        const SimResult r =
            Experiment::makeSweepJob(kernel, config, "LI", journal.get())();
        EXPECT_TRUE(r.failed);
        EXPECT_EQ(r.error.kind, SimErrorKind::Timeout) << r.failureReason;
        EXPECT_FALSE(r.error.diagnostic.empty());
    }

    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    const JournalEntry *entry =
        journal->find(makeSweepJobKey(*kernel, config).toString());
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->status, "failed");
    EXPECT_EQ(entry->result.error.kind, SimErrorKind::Timeout);
    std::remove(path.c_str());
}

TEST(SweepJournal, ResumeWithoutDeadlineRerunsTheTimedOutCell)
{
    const std::string path = tempPath("journal_deadline_resume.sweep.jsonl");
    std::remove(path.c_str());
    const auto kernel = fullScaleKernel();
    const GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
    GpuConfig budgeted = config;
    budgeted.verify.wallTimeoutMs = 1.0;

    std::string error;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        const SimResult timed_out = Experiment::makeSweepJob(
            kernel, budgeted, "LI", journal.get())();
        ASSERT_EQ(timed_out.error.kind, SimErrorKind::Timeout)
            << timed_out.failureReason;
    }

    // Same key without the budget: the failed entry is not replayed, the
    // cell runs again and matches a clean run.
    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->completedCount(), 0u);
    const SimResult resumed =
        Experiment::makeSweepJob(kernel, config, "LI", journal.get())();
    ASSERT_FALSE(resumed.failed) << resumed.failureReason;
    EXPECT_FALSE(resumed.fromJournal);
    EXPECT_EQ(compareSimResults(resumed, Simulator::run(config, *kernel)), "");
    EXPECT_EQ(journal->completedCount(), 1u);
    std::remove(path.c_str());
}

TEST(SweepJournal, SharedCancelTokenKillsEveryJob)
{
    // One token shared by a sweep's jobs kills a run in flight and every
    // run that starts after the kill; both are journaled as failed, so a
    // resume re-runs them.
    const std::string path = tempPath("journal_kill.sweep.jsonl");
    std::remove(path.c_str());
    const auto kernel = fullScaleKernel();
    const auto kill = std::make_shared<CancelToken>();
    GpuConfig baseline = Experiment::configFor(PolicyKind::Baseline);
    baseline.verify.cancel = kill;
    GpuConfig finereg = Experiment::configFor(PolicyKind::FineReg);
    finereg.verify.cancel = kill;

    std::string error;
    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    auto inflight_job =
        Experiment::makeSweepJob(kernel, baseline, "LI", journal.get());
    SimResult inflight;
    std::thread worker([&] { inflight = inflight_job(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    kill->cancel();
    worker.join();
    const SimResult late =
        Experiment::makeSweepJob(kernel, finereg, "LI", journal.get())();

    EXPECT_EQ(inflight.error.kind, SimErrorKind::Cancelled)
        << inflight.failureReason;
    EXPECT_EQ(late.error.kind, SimErrorKind::Cancelled) << late.failureReason;
    EXPECT_EQ(journal->size(), 2u);
    EXPECT_EQ(journal->completedCount(), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace finereg

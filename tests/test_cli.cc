/**
 * @file
 * Tests for the finereg_sim command-line option parser.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/cli_options.hh"

namespace finereg
{
namespace
{

ParseResult
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> v;
    for (const char *arg : args)
        v.emplace_back(arg);
    return parseCliOptions(v);
}

TEST(CliOptions, DefaultsAreSane)
{
    const auto r = parse({});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.options->apps.empty());
    ASSERT_EQ(r.options->policies.size(), 2u);
    EXPECT_EQ(r.options->policies[0], PolicyKind::Baseline);
    EXPECT_EQ(r.options->policies[1], PolicyKind::FineReg);
    EXPECT_DOUBLE_EQ(r.options->gridScale, 1.0);
    EXPECT_EQ(r.options->config.numSms, 16u);
    EXPECT_FALSE(r.options->csv);
}

TEST(CliOptions, AppList)
{
    const auto r = parse({"--app", "MC,SG"});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.options->apps.size(), 2u);
    EXPECT_EQ(r.options->apps[0], "MC");
    EXPECT_EQ(r.options->apps[1], "SG");
}

TEST(CliOptions, UnknownAppRejected)
{
    const auto r = parse({"--app", "NOPE"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("NOPE"), std::string::npos);
}

TEST(CliOptions, PolicyNames)
{
    EXPECT_EQ(parsePolicyName("finereg"), PolicyKind::FineReg);
    EXPECT_EQ(parsePolicyName("vt"), PolicyKind::VirtualThread);
    EXPECT_EQ(parsePolicyName("regdram"), PolicyKind::RegDram);
    EXPECT_EQ(parsePolicyName("zorua"), PolicyKind::RegDram);
    EXPECT_EQ(parsePolicyName("regmutex"), PolicyKind::RegMutex);
    EXPECT_EQ(parsePolicyName("baseline"), PolicyKind::Baseline);
    EXPECT_FALSE(parsePolicyName("gpu").has_value());
}

TEST(CliOptions, PolicyAll)
{
    const auto r = parse({"--policy", "all"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->policies.size(), 5u);
}

TEST(CliOptions, PolicySelection)
{
    const auto r = parse({"--policy", "vt,finereg"});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.options->policies.size(), 2u);
    EXPECT_EQ(r.options->policies[0], PolicyKind::VirtualThread);
    EXPECT_EQ(r.options->policies[1], PolicyKind::FineReg);
}

TEST(CliOptions, UnknownPolicyRejected)
{
    EXPECT_FALSE(parse({"--policy", "magic"}).ok());
}

TEST(CliOptions, AcrfAdjustsPcrf)
{
    const auto r = parse({"--acrf", "96"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->config.policy.acrfBytes, 96u * 1024);
    EXPECT_EQ(r.options->config.policy.pcrfBytes, 160u * 1024);
}

TEST(CliOptions, PcrfAdjustsAcrf)
{
    const auto r = parse({"--pcrf", "32"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->config.policy.pcrfBytes, 32u * 1024);
    EXPECT_EQ(r.options->config.policy.acrfBytes, 224u * 1024);
}

TEST(CliOptions, AcrfPcrfPairMustAddUpToTheRegisterFile)
{
    const auto r = parse({"--acrf", "192", "--pcrf", "64"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->config.policy.acrfBytes, 192u * 1024);
    EXPECT_EQ(r.options->config.policy.pcrfBytes, 64u * 1024);

    const auto bad = parse({"--acrf", "128", "--pcrf", "64"});
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.error.find("register file"), std::string::npos);
}

TEST(CliOptions, AcrfBeyondRfRejected)
{
    EXPECT_FALSE(parse({"--acrf", "512"}).ok());
    EXPECT_FALSE(parse({"--pcrf", "256"}).ok());
}

TEST(CliOptions, NumericFlags)
{
    const auto r = parse({"--sms", "32", "--scale", "0.5", "--seed", "7",
                          "--max-cycles", "1000", "--srp-ratio", "0.2",
                          "--growth-factor", "1.5"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->config.numSms, 32u);
    EXPECT_DOUBLE_EQ(r.options->gridScale, 0.5);
    EXPECT_EQ(r.options->config.seed, 7u);
    EXPECT_EQ(r.options->config.maxCycles, 1000u);
    EXPECT_DOUBLE_EQ(r.options->config.policy.srpRatio, 0.2);
    EXPECT_DOUBLE_EQ(r.options->config.policy.pendingGrowthFactor, 1.5);
}

TEST(CliOptions, JobsFlag)
{
    const auto r = parse({"--jobs", "8"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->jobs, 8u);
    EXPECT_EQ(parse({}).options->jobs, 0u); // 0 = auto-resolve
    EXPECT_FALSE(parse({"--jobs", "0"}).ok());
    EXPECT_FALSE(parse({"--jobs", "-2"}).ok());
    EXPECT_FALSE(parse({"--jobs"}).ok());
}

TEST(CliOptions, VerifyFlags)
{
    const auto r = parse({"--audit-interval", "1000", "--watchdog-cycles",
                          "50000", "--fault-seed", "42", "--fault-dram",
                          "0.1", "--fault-pcrf", "0.2", "--fault-bitvec",
                          "0.3", "--job-timeout-ms", "250"});
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.options->config.verify.wallTimeoutMs, 250.0);
    EXPECT_EQ(r.options->config.verify.auditInterval, 1000u);
    EXPECT_EQ(r.options->config.verify.watchdogCycles, 50000u);
    EXPECT_EQ(r.options->config.verify.fault.seed, 42u);
    EXPECT_TRUE(r.options->config.verify.fault.enabled());
    EXPECT_DOUBLE_EQ(r.options->config.verify.fault.dramDelayProb, 0.1);
    EXPECT_DOUBLE_EQ(r.options->config.verify.fault.pcrfFullProb, 0.2);
    EXPECT_DOUBLE_EQ(r.options->config.verify.fault.bitvecMissProb, 0.3);
}

TEST(CliOptions, VerifyDefaultsOff)
{
    const auto r = parse({});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options->config.verify.auditInterval, 0u);
    EXPECT_FALSE(r.options->config.verify.fault.enabled());
}

TEST(CliOptions, BadVerifyValuesRejected)
{
    EXPECT_FALSE(parse({"--fault-dram", "1.5"}).ok());
    EXPECT_FALSE(parse({"--fault-pcrf", "-0.1"}).ok());
    EXPECT_FALSE(parse({"--audit-interval"}).ok());
    EXPECT_FALSE(parse({"--watchdog-cycles", "-5"}).ok());
    EXPECT_FALSE(parse({"--job-timeout-ms", "-1"}).ok());
}

TEST(CliOptions, MalformedNumbersRejected)
{
    // Each of these once ran with a silently substituted value.
    for (const auto &[flag, value] :
         std::vector<std::pair<const char *, const char *>>{
             {"--growth-factor", "abc"},
             {"--growth-factor", "-1"},
             {"--seed", "abc"},
             {"--fault-seed", "abc"},
             {"--scale", "nan"},
             {"--scale", "inf"},
             {"--scale", "0.5x"},
             {"--jobs", "4.5"},
             {"--sms", ""},
             {"--max-cycles", "1e3"},
             {"--audit-interval", "-1"},
             {"--job-timeout-ms", "1e999"},
             {"--acrf", "99999999999"}}) {
        const auto r = parse({flag, value});
        EXPECT_FALSE(r.ok()) << flag << " " << value;
        EXPECT_NE(r.error.find(flag), std::string::npos) << r.error;
    }
}

TEST(CliOptions, SchedulerChoice)
{
    const auto gto = parse({"--sched", "gto"});
    ASSERT_TRUE(gto.ok());
    EXPECT_EQ(gto.options->config.sm.sched, SchedKind::GTO);
    const auto lrr = parse({"--sched", "lrr"});
    ASSERT_TRUE(lrr.ok());
    EXPECT_EQ(lrr.options->config.sm.sched, SchedKind::LRR);
    EXPECT_FALSE(parse({"--sched", "fifo"}).ok());
}

TEST(CliOptions, IdleSkipModes)
{
    EXPECT_EQ(parse({}).options->config.idleSkip, IdleSkipMode::Scan);
    const auto scan = parse({"--idle-skip", "scan"});
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan.options->config.idleSkip, IdleSkipMode::Scan);
    const auto step = parse({"--idle-skip", "step"});
    ASSERT_TRUE(step.ok());
    EXPECT_EQ(step.options->config.idleSkip, IdleSkipMode::StepEveryCycle);
    const auto wheel = parse({"--idle-skip", "wheel"});
    EXPECT_FALSE(wheel.ok());
    EXPECT_NE(wheel.error.find("--idle-skip"), std::string::npos)
        << wheel.error;
}

TEST(CliOptions, Booleans)
{
    const auto r = parse({"--csv", "--verbose", "--unified-memory",
                          "--list-apps", "--help"});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.options->csv);
    EXPECT_TRUE(r.options->verbose);
    EXPECT_TRUE(r.options->config.policy.unifiedMemory);
    EXPECT_TRUE(r.options->listApps);
    EXPECT_TRUE(r.options->help);
}

TEST(CliOptions, MissingValueRejected)
{
    EXPECT_FALSE(parse({"--app"}).ok());
    EXPECT_FALSE(parse({"--scale"}).ok());
    EXPECT_FALSE(parse({"--sms"}).ok());
}

TEST(CliOptions, BadValuesRejected)
{
    EXPECT_FALSE(parse({"--scale", "0"}).ok());
    EXPECT_FALSE(parse({"--sms", "-4"}).ok());
    EXPECT_FALSE(parse({"--srp-ratio", "1.5"}).ok());
    EXPECT_FALSE(parse({"--max-cycles", "0"}).ok());
}

TEST(CliOptions, UnknownFlagRejected)
{
    const auto r = parse({"--frobnicate"});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("frobnicate"), std::string::npos);
}

TEST(CliOptions, UsageMentionsEveryFlag)
{
    const std::string usage = cliUsage();
    for (const char *flag :
         {"--app", "--policy", "--scale", "--jobs", "--sms", "--acrf",
          "--pcrf",
          "--srp-ratio", "--growth-factor", "--sched", "--unified-memory",
          "--seed", "--max-cycles", "--idle-skip", "--csv", "--list-apps",
          "--verbose", "--help"}) {
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
    }
}

} // namespace
} // namespace finereg

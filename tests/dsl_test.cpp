// Tests for the scenario DSL: parsing, error reporting, execution, and the
// shipped corpus (scenarios/*.scn must all meet their expectations).
#include <gtest/gtest.h>

#include <filesystem>

#include "scenario/dsl.hpp"
#include "scenario/figures.hpp"

namespace mcan {
namespace {

TEST(Dsl, ParsesFullSpec) {
  auto spec = parse_scenario(R"(
# comment
name My scenario
protocol major 7
nodes 6
frame id=0x155 dlc=8
flip node=1 eof=5
flip node=2 eofrel=12 frame=1
flip node=3 body=20
flip node=4 t=99
crash node=0 t=75
expect imo
)");
  EXPECT_EQ(spec.name, "My scenario");
  EXPECT_EQ(spec.protocol.variant, Variant::MajorCan);
  EXPECT_EQ(spec.protocol.m, 7);
  EXPECT_EQ(spec.n_nodes, 6);
  EXPECT_EQ(spec.frame_id, 0x155u);
  EXPECT_EQ(spec.frame_dlc, 8);
  ASSERT_EQ(spec.flips.size(), 4u);
  EXPECT_EQ(spec.flips[0].node, 1u);
  EXPECT_EQ(spec.flips[0].seg, Seg::Eof);
  EXPECT_EQ(spec.flips[1].eof_rel, 12);
  EXPECT_EQ(spec.flips[1].frame_index, 1);
  EXPECT_EQ(spec.flips[2].seg, Seg::Body);
  EXPECT_EQ(spec.flips[3].at, 99u);
  ASSERT_TRUE(spec.crash.has_value());
  EXPECT_EQ(spec.crash->first, 0u);
  EXPECT_EQ(spec.crash->second, 75u);
  EXPECT_EQ(spec.expect, Expectation::Imo);
}

TEST(Dsl, DefaultsAreStandardCan) {
  auto spec = parse_scenario("flip node=1 eof=5\n");
  EXPECT_EQ(spec.protocol.variant, Variant::StandardCan);
  EXPECT_EQ(spec.n_nodes, 5);
  EXPECT_EQ(spec.expect, Expectation::Any);
}

TEST(Dsl, ErrorsCarryLineNumbers) {
  try {
    parse_scenario("protocol can\nbogus directive\n");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Dsl, RejectsBadInput) {
  EXPECT_THROW(parse_scenario("protocol warp\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("nodes 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("flip node=1\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("flip eof=5\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("crash node=0\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("expect maybe\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("frame id=zzz\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("protocol major 2\n"), std::invalid_argument);
}

TEST(Dsl, RunMatchesHardcodedFig3a) {
  auto spec = parse_scenario(R"(
protocol can
nodes 5
flip node=1 eof=5
flip node=2 eof=5
flip node=0 eof=6
expect imo
)");
  auto res = run_scenario(spec);
  EXPECT_TRUE(res.expectation_met) << res.outcome.summary();
  EXPECT_TRUE(res.outcome.imo());
  EXPECT_EQ(res.outcome.tx_success, 1);

  auto hard = run_fig3(ProtocolParams::standard_can());
  EXPECT_EQ(res.outcome.deliveries, hard.deliveries);
}

TEST(Dsl, ShippedCorpusMeetsExpectations) {
  for (const char* file :
       {"fig1b_double_reception.scn", "fig3a_new_scenario.scn",
        "fig3b_minorcan.scn", "fig5_majorcan.scn", "desync_finding.scn"}) {
    SCOPED_TRACE(file);
    ScenarioSpec spec;
    try {
      spec = load_scenario_file(std::string(MCAN_SCENARIO_DIR "/") + file);
    } catch (const std::invalid_argument& e) {
      FAIL() << e.what();
    }
    auto res = run_scenario(spec);
    EXPECT_TRUE(res.expectation_met)
        << res.expectation_text << " but got: " << res.outcome.summary();
    EXPECT_TRUE(res.outcome.faults_all_fired);
  }
}

TEST(Dsl, TotalLossReadsAsImo) {
  // The attack optimizer's certified MajorCAN_3 witness: the sender logs
  // TxSuccess and no receiver delivers.  That breaks validity, so the DSL
  // must judge it as the model checker that certified it does: an IMO
  // that is also a total loss.
  ScenarioSpec spec = load_scenario_file(
      std::string(MCAN_SCENARIO_DIR "/") + "attack_glitch_majorcan_3.scn");
  spec.expect = Expectation::Imo;
  const DslRunResult res = run_scenario(spec);
  EXPECT_EQ(res.outcome.tx_success, 1);
  const Verdict v = res.outcome.verdict();
  EXPECT_TRUE(v.imo) << res.outcome.summary();
  EXPECT_TRUE(v.loss) << res.outcome.summary();
  EXPECT_TRUE(res.expectation_met) << res.outcome.summary();
  EXPECT_NE(res.outcome.summary().find("(total loss)"), std::string::npos);
}

TEST(Dsl, MissingFileThrows) {
  EXPECT_THROW(load_scenario_file("/nonexistent/x.scn"), std::invalid_argument);
}

TEST(Dsl, WriterRoundTripsSyntheticSpec) {
  // One of everything: every flip addressing form, a traffic mix, a crash.
  auto spec = parse_scenario(R"(
name round trip
protocol major 7
nodes 6
frame id=0x155 dlc=8
traffic id=0x2a0 dlc=2 node=3
traffic id=0x07f dlc=0 node=5
flip node=1 eof=5
flip node=2 eofrel=12 frame=1
flip node=3 body=20
flip node=4 t=99
crash node=0 t=75
expect imo
)");
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec) << text;
}

TEST(Dsl, WriterRoundTripsEverySpec) {
  // expect is always emitted, even at its default.
  const ScenarioSpec bare = parse_scenario("nodes 3\n");
  EXPECT_EQ(parse_scenario(write_scenario(bare)), bare);
  // Comments are presentation-only: they don't disturb the parse.
  ScenarioWriteOptions opts;
  opts.header = {"header line", "another"};
  EXPECT_EQ(parse_scenario(write_scenario(bare, opts)), bare);
}

TEST(Dsl, WriterRoundTripsShippedCorpus) {
  // Every committed scenario file must survive parse -> write -> parse
  // exactly: the writer is the one exporter (model checker, fuzzer triage),
  // so drift between it and the parser would corrupt reproducers.
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(MCAN_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const ScenarioSpec spec = load_scenario_file(entry.path().string());
    const std::string text = write_scenario(spec);
    EXPECT_EQ(parse_scenario(text), spec) << text;
    ++seen;
  }
  EXPECT_GE(seen, 7);  // the shipped corpus
}

}  // namespace
}  // namespace mcan

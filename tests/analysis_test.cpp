// Tests for the analysis module: the paper's probability model (Table 1)
// and the Atomic Broadcast property checker.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "analysis/prob_model.hpp"
#include "analysis/properties.hpp"
#include "analysis/tagged.hpp"
#include "analysis/verdict.hpp"

namespace mcan {
namespace {

TEST(Verdict, ReferenceSemantics) {
  // All receivers have it: consistent.
  EXPECT_FALSE(judge_delivery({1, 1, 1}, 0, 1, false, false).violation());
  // One receiver lacks it: inconsistent omission.
  EXPECT_TRUE(judge_delivery({1, 1, 0}, 0, 1, false, false).imo);
  // Sender believes success, nobody has it: omission AND total loss.
  {
    const Verdict v = judge_delivery({0, 0, 0}, 0, 1, false, false);
    EXPECT_TRUE(v.imo);
    EXPECT_TRUE(v.loss);
    EXPECT_EQ(describe_verdict(v, {0, 0, 0}, 0), "IMO: deliveries 0 0");
  }
  // ... unless the sender crashed: it no longer holds the frame.
  EXPECT_FALSE(judge_delivery({0, 0, 0}, 0, 1, true, false).violation());
  // Nothing delivered, sender never succeeded: no event.
  EXPECT_FALSE(judge_delivery({0, 0, 0}, 0, 0, false, false).imo);
  // A receiver delivered twice: duplicate.
  {
    const Verdict v = judge_delivery({0, 2, 1}, 0, 1, false, false);
    EXPECT_TRUE(v.dup);
    EXPECT_FALSE(v.imo);
    EXPECT_EQ(describe_verdict(v, {0, 2, 1}, 0),
              "double reception: deliveries 2 1");
  }
  // The sender's own entry never counts, wherever it sits.
  EXPECT_FALSE(judge_delivery({1, 0, 1}, 1, 1, false, false).violation());
  // Timeout poisons everything else.
  const Verdict v = judge_delivery({0, 1, 0}, 0, 1, false, true);
  EXPECT_TRUE(v.timeout);
  EXPECT_FALSE(v.imo);
  EXPECT_EQ(describe_verdict(v, {0, 1, 0}, 0), "TIMEOUT");
  EXPECT_EQ(describe_verdict({}, {1, 1, 1}, 0), "");
}

TEST(ProbModel, Binomials) {
  EXPECT_DOUBLE_EQ(binom(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binom(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binom(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binom(31, 1), 31.0);
  EXPECT_DOUBLE_EQ(binom(31, 2), 465.0);
  EXPECT_DOUBLE_EQ(binom(4, 7), 0.0);
  EXPECT_DOUBLE_EQ(binom(4, -1), 0.0);
}

TEST(ProbModel, BerStarIsBerOverN) {
  ModelParams p;
  p.ber = 3.2e-5;
  p.n_nodes = 32;
  EXPECT_DOUBLE_EQ(p.ber_star(), 1e-6);
}

TEST(ProbModel, FramesPerHourReference) {
  ModelParams p;  // 1 Mbit/s, 90% load, 110-bit frames
  EXPECT_NEAR(p.frames_per_hour(), 0.9e6 / 110 * 3600, 1.0);
}

TEST(ProbModel, Table1MatchesPaperToPrintedPrecision) {
  const auto computed = compute_table1();
  const auto published = published_table1();
  ASSERT_EQ(computed.size(), published.size());
  for (std::size_t i = 0; i < computed.size(); ++i) {
    // The paper prints 3 significant digits; require < 1% relative error.
    EXPECT_NEAR(computed[i].imo_new_per_hour / published[i].imo_new_per_hour,
                1.0, 0.01)
        << "IMOnew row " << i;
    EXPECT_NEAR(
        computed[i].imo_old_star_per_hour / published[i].imo_old_star_per_hour,
        1.0, 0.01)
        << "IMO* row " << i;
  }
}

TEST(ProbModel, NewScenarioDominatesOld) {
  // The dominance ratio shrinks with ber (ber* vs the fixed crash factor):
  // ~2000x at ber=1e-4 down to ~22x at ber=1e-6 — exactly Table 1's shape.
  for (double ber : {1e-4, 1e-5, 1e-6}) {
    ModelParams p;
    p.ber = ber;
    const double ratio =
        p_new_scenario_per_frame(p) / p_old_scenario_per_frame(p);
    EXPECT_GT(ratio, 10.0) << "ber=" << ber;
  }
  ModelParams aggressive;
  aggressive.ber = 1e-4;
  EXPECT_GT(p_new_scenario_per_frame(aggressive) /
                p_old_scenario_per_frame(aggressive),
            1e3);
}

TEST(ProbModel, ValidateAcceptsReferenceParameters) {
  ModelParams p;  // the Table-1 defaults
  EXPECT_NO_THROW(p.validate());
}

TEST(ProbModel, ValidateRejectsBadParameters) {
  const auto expect_reject = [](auto mutate) {
    ModelParams p;
    mutate(p);
    EXPECT_THROW(p.validate(), std::invalid_argument);
    // The evaluators must refuse the same configuration.
    EXPECT_THROW((void)p_new_scenario_per_frame(p), std::invalid_argument);
    EXPECT_THROW((void)p_old_scenario_per_frame(p), std::invalid_argument);
  };
  expect_reject([](ModelParams& p) { p.ber = 0.0; });
  expect_reject([](ModelParams& p) { p.ber = -1e-5; });
  expect_reject([](ModelParams& p) { p.ber = 1.5; });
  expect_reject([](ModelParams& p) { p.ber = std::nan(""); });
  expect_reject([](ModelParams& p) { p.load = 0.0; });
  expect_reject([](ModelParams& p) { p.load = 1.2; });
  expect_reject([](ModelParams& p) { p.n_nodes = 1; });
  expect_reject([](ModelParams& p) { p.frame_bits = 0; });
  expect_reject([](ModelParams& p) { p.frame_bits = -110; });
  expect_reject([](ModelParams& p) { p.bitrate = 0.0; });
  expect_reject([](ModelParams& p) { p.lambda_per_hour = -1.0; });
  expect_reject([](ModelParams& p) { p.delta_t_s = -5e-3; });
}

TEST(ProbModel, ValidateErrorsNameTheField) {
  ModelParams p;
  p.ber = 0.0;
  try {
    p.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ber"), std::string::npos);
  }
}

TEST(ProbModel, AboveAerospaceReference) {
  // The paper's point: even at benign ber=1e-6, the new scenarios exceed
  // the 1e-9/h aerospace target.
  ModelParams p;
  p.ber = 1e-6;
  EXPECT_GT(imo_new_per_hour(p), 1e-9);
}

TEST(ProbModel, ScalesRoughlyQuadraticallyInBer) {
  // Expression (4) has two independent hits => ~ber^2 behaviour.
  ModelParams a, b;
  a.ber = 1e-5;
  b.ber = 1e-6;
  const double ratio = p_new_scenario_per_frame(a) / p_new_scenario_per_frame(b);
  EXPECT_NEAR(ratio, 100.0, 2.0);
}

// --- tagged messages ---

TEST(Tagged, RoundTrip) {
  Frame f = make_tagged_frame(0x123, MsgKind::Confirm, MessageKey{7, 0xbeef});
  auto tag = parse_tag(f);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->kind, MsgKind::Confirm);
  EXPECT_EQ(tag->key.source, 7u);
  EXPECT_EQ(tag->key.seq, 0xbeef);
}

TEST(Tagged, RejectsNonTaggedFrames) {
  EXPECT_FALSE(parse_tag(Frame::make_blank(1, 2)).has_value());
  EXPECT_FALSE(parse_tag(Frame::make_remote(1, 4)).has_value());
  Frame f = Frame::make_blank(1, 4);
  f.data[0] = 99;  // unknown kind
  EXPECT_FALSE(parse_tag(f).has_value());
}

TEST(Tagged, NeedsFourBytes) {
  EXPECT_THROW(make_tagged_frame(1, MsgKind::Data, MessageKey{0, 0}, 2),
               std::invalid_argument);
}

// --- property checker ---

DeliveryJournal journal(std::initializer_list<MessageKey> keys) {
  DeliveryJournal j;
  BitTime t = 0;
  for (const MessageKey& k : keys) j.push_back({k, ++t});
  return j;
}

TEST(Properties, CleanRunIsAtomicBroadcast) {
  const MessageKey a{0, 1}, b{1, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a, b});
  js[1] = journal({a, b});
  js[2] = journal({a, b});
  auto rep = check_atomic_broadcast({{a, 0}, {b, 1}}, js, {0, 1, 2});
  EXPECT_TRUE(rep.atomic_broadcast()) << rep.summary();
}

TEST(Properties, AgreementViolationIsImo) {
  const MessageKey a{0, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a});
  js[1] = journal({a});
  js[2] = journal({});  // node 2 never got it
  auto rep = check_atomic_broadcast({{a, 0}}, js, {0, 1, 2});
  EXPECT_EQ(rep.agreement_violations, 1);
  EXPECT_FALSE(rep.atomic_broadcast());
}

TEST(Properties, CrashedNodesDoNotCountForAgreement) {
  const MessageKey a{0, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a});
  js[1] = journal({a});
  js[2] = journal({});  // crashed: excluded from `correct`
  auto rep = check_atomic_broadcast({{a, 0}}, js, {0, 1});
  EXPECT_EQ(rep.agreement_violations, 0);
  EXPECT_TRUE(rep.atomic_broadcast()) << rep.summary();
}

TEST(Properties, DuplicateDeliveriesCounted) {
  const MessageKey a{0, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a});
  js[1] = journal({a, a, a});
  auto rep = check_atomic_broadcast({{a, 0}}, js, {0, 1});
  EXPECT_EQ(rep.duplicate_deliveries, 2);
  EXPECT_EQ(rep.messages_with_duplicates, 1);
  EXPECT_FALSE(rep.atomic_broadcast());
  EXPECT_TRUE(rep.reliable_broadcast()) << "dups don't break agreement";
}

TEST(Properties, ValidityViolationWhenNobodyDelivers) {
  const MessageKey a{0, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({});
  js[1] = journal({});
  auto rep = check_atomic_broadcast({{a, 0}}, js, {0, 1});
  EXPECT_EQ(rep.validity_violations, 1);
}

TEST(Properties, NoValidityViolationForCrashedSender) {
  const MessageKey a{5, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({});
  js[1] = journal({});
  auto rep = check_atomic_broadcast({{a, 5}}, js, {0, 1});  // 5 not correct
  EXPECT_EQ(rep.validity_violations, 0);
}

TEST(Properties, NontrivialityOnUnknownMessage) {
  const MessageKey ghost{9, 9};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({ghost});
  auto rep = check_atomic_broadcast({}, js, {0});
  EXPECT_EQ(rep.nontriviality_violations, 1);
}

TEST(Properties, OrderInversionsDetected) {
  const MessageKey a{0, 1}, b{1, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a, b});
  js[1] = journal({b, a});
  auto rep = check_atomic_broadcast({{a, 0}, {b, 1}}, js, {0, 1});
  EXPECT_EQ(rep.order_inversions, 1);
  EXPECT_FALSE(rep.atomic_broadcast());
}

TEST(Properties, FifoViolationDetected) {
  const MessageKey a1{0, 1}, a2{0, 2};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a1, a2});
  js[1] = journal({a2, a1});  // same source delivered out of order
  auto rep = check_atomic_broadcast({{a1, 0}, {a2, 0}}, js, {0, 1});
  EXPECT_EQ(rep.fifo_violations, 1);
}

TEST(Properties, FifoHoldsAcrossSources) {
  const MessageKey a{0, 5}, b{1, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a, b});
  js[1] = journal({b, a});  // different sources: total order broken,
                            // per-source FIFO intact
  auto rep = check_atomic_broadcast({{a, 0}, {b, 1}}, js, {0, 1});
  EXPECT_EQ(rep.fifo_violations, 0);
  EXPECT_EQ(rep.order_inversions, 1);
}

TEST(Properties, DuplicatesUseFirstDeliveryForOrder) {
  const MessageKey a{0, 1}, b{1, 1};
  std::map<NodeId, DeliveryJournal> js;
  js[0] = journal({a, b, a});  // duplicate a at the end
  js[1] = journal({a, b});
  auto rep = check_atomic_broadcast({{a, 0}, {b, 1}}, js, {0, 1});
  EXPECT_EQ(rep.order_inversions, 0) << "order judged by first delivery";
}

}  // namespace
}  // namespace mcan

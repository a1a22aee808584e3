#include "ranking/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace sqlcheck {
namespace {

TEST(RankingModelTest, Figure6FormulaeExactValues) {
  // Reproduces Example 6 / Figure 7 of the paper.
  ApMetrics index_underuse;
  index_underuse.read_speedup = 1.5;
  ApMetrics enum_types;
  enum_types.write_speedup = 10.0;
  enum_types.maintainability = 2.0;
  enum_types.data_amplification = 1.0;

  RankingModel c1(RankingWeights::C1());
  EXPECT_NEAR(c1.Score(index_underuse), 0.21, 1e-9);   // 0.7 * min(1, 1.5/5)
  EXPECT_NEAR(c1.Score(enum_types), 0.175, 1e-9);      // 0.15 + 0.02 + 0.005

  RankingModel c2(RankingWeights::C2());
  EXPECT_NEAR(c2.Score(index_underuse), 0.12, 1e-9);
  EXPECT_NEAR(c2.Score(enum_types), 0.445, 1e-9);      // paper rounds to 0.47
}

TEST(RankingModelTest, SquashingSaturatesAtOne) {
  ApMetrics huge;
  huge.read_speedup = 10000.0;
  RankingModel model(RankingWeights::C1());
  EXPECT_NEAR(model.Score(huge), 0.7, 1e-9);  // Wrp * min(1, ...) = Wrp
}

TEST(RankingModelTest, NoImprovementScoresZero) {
  ApMetrics flat;
  flat.read_speedup = 1.0;  // ratio 1.0 = no change
  flat.write_speedup = 0.9;
  RankingModel model;
  EXPECT_DOUBLE_EQ(model.Score(flat), 0.0);
}

TEST(RankingModelTest, RankSortsDescending) {
  Detection high;
  high.type = AntiPattern::kMultiValuedAttribute;  // huge read speedup
  Detection low;
  low.type = AntiPattern::kGenericPrimaryKey;  // maintainability only
  RankingModel model;
  auto ranked = model.Rank({low, high, low});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].detection.type, AntiPattern::kMultiValuedAttribute);
  EXPECT_GE(ranked[0].score, ranked[1].score);
  EXPECT_GE(ranked[1].score, ranked[2].score);
}

TEST(RankingModelTest, QueryAwareAdjustment) {
  // §5.2: a detection on a read-only statement cannot claim write speedup.
  sql::SelectStatement select_stmt;
  sql::InsertStatement insert_stmt;
  Detection on_select;
  on_select.type = AntiPattern::kEnumeratedTypes;  // write-heavy metrics
  on_select.stmt = &select_stmt;
  Detection on_insert = on_select;
  on_insert.stmt = &insert_stmt;

  RankingModel model(RankingWeights::C2());
  double select_score = model.ScoreDetection(on_select).score;
  double insert_score = model.ScoreDetection(on_insert).score;
  EXPECT_LT(select_score, insert_score);
}

TEST(RankingModelTest, ByApCountModeGroupsBusyQueries) {
  Detection a1;
  a1.type = AntiPattern::kGenericPrimaryKey;  // low score
  a1.query = "q_busy";
  Detection a2 = a1;
  a2.type = AntiPattern::kColumnWildcard;
  Detection b;
  b.type = AntiPattern::kMultiValuedAttribute;  // highest score
  b.query = "q_single";

  RankingModel by_count(RankingWeights::C1(), InterQueryMode::kByApCount);
  auto ranked = by_count.Rank({b, a1, a2});
  // The two-AP query outranks the single high-scoring one in count mode.
  EXPECT_EQ(ranked[0].detection.query, "q_busy");

  RankingModel by_score(RankingWeights::C1(), InterQueryMode::kByScore);
  auto ranked2 = by_score.Rank({b, a1, a2});
  EXPECT_EQ(ranked2[0].detection.query, "q_single");
}

TEST(MetricsStoreTest, DefaultsCoverEveryType) {
  MetricsStore store = MetricsStore::Default();
  // Spot-check the calibration rows cited from the paper.
  EXPECT_NEAR(store.For(AntiPattern::kMultiValuedAttribute).read_speedup, 636.0, 1e-9);
  EXPECT_NEAR(store.For(AntiPattern::kIndexUnderuse).read_speedup, 1.5, 1e-9);
  EXPECT_NEAR(store.For(AntiPattern::kEnumeratedTypes).write_speedup, 10.0, 1e-9);
}

TEST(MetricsStoreTest, RecordObservationBlends) {
  MetricsStore store = MetricsStore::Default();
  ApMetrics observed;
  observed.read_speedup = 3.0;
  observed.accuracy = 1;
  double before = store.For(AntiPattern::kIndexUnderuse).read_speedup;
  store.RecordObservation(AntiPattern::kIndexUnderuse, observed, 0.5);
  const ApMetrics& after = store.For(AntiPattern::kIndexUnderuse);
  EXPECT_NEAR(after.read_speedup, 0.5 * before + 0.5 * 3.0, 1e-9);
  EXPECT_EQ(after.accuracy, 1);  // binary flags stick
}


// The reference ordering: a stable sort of the scored detections themselves,
// with the comparators Rank used before it sorted a permutation.
std::vector<RankedDetection> ReferenceRank(const RankingModel& model,
                                           const std::vector<Detection>& detections,
                                           InterQueryMode mode) {
  std::vector<RankedDetection> ranked;
  for (const Detection& d : detections) ranked.push_back(model.ScoreDetection(d));
  if (mode == InterQueryMode::kByApCount) {
    std::map<std::string, int> per_query;
    for (const auto& r : ranked) ++per_query[r.detection.query];
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](const RankedDetection& a, const RankedDetection& b) {
                       int ca = per_query[a.detection.query];
                       int cb = per_query[b.detection.query];
                       if (ca != cb) return ca > cb;
                       return a.score > b.score;
                     });
  } else {
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedDetection& a, const RankedDetection& b) {
                       return a.score > b.score;
                     });
  }
  return ranked;
}

TEST(RankingModelTest, PermutationMatchesStableSortReference) {
  // Few types, three statement kinds and a small pool of repeated query
  // texts: scores tie heavily and per-query counts tie too, so any drift in
  // tie-breaking shows.
  sql::SelectStatement select_stmt;
  sql::InsertStatement insert_stmt;
  const std::vector<const sql::Statement*> stmts = {nullptr, &select_stmt, &insert_stmt};
  const std::vector<AntiPattern> types = {
      AntiPattern::kColumnWildcard, AntiPattern::kGenericPrimaryKey,
      AntiPattern::kMultiValuedAttribute, AntiPattern::kEnumeratedTypes,
      AntiPattern::kPatternMatching};
  for (uint32_t seed : {1u, 7u, 1234u}) {
    std::mt19937 rng(seed);
    auto draw = [&](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    std::vector<Detection> detections;
    for (int i = 0; i < 2000; ++i) {
      Detection d;
      d.type = types[draw(types.size())];
      d.stmt = stmts[draw(stmts.size())];
      const size_t q = draw(60);
      d.query = q == 0 ? "" : "SELECT * FROM t" + std::to_string(q);
      d.message = "d" + std::to_string(i);  // identifies the detection
      detections.push_back(std::move(d));
    }
    for (InterQueryMode mode : {InterQueryMode::kByScore, InterQueryMode::kByApCount}) {
      for (const RankingWeights& weights : {RankingWeights::C1(), RankingWeights::C2()}) {
        RankingModel model(weights, mode);
        std::vector<RankedDetection> expected = ReferenceRank(model, detections, mode);
        std::vector<RankedDetection> actual = model.Rank(detections);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t k = 0; k < actual.size(); ++k) {
          ASSERT_EQ(actual[k].detection.message, expected[k].detection.message)
              << "seed " << seed << " position " << k;
          ASSERT_EQ(actual[k].score, expected[k].score);
          ASSERT_EQ(actual[k].detection.query, expected[k].detection.query);
          ASSERT_EQ(actual[k].detection.stmt, expected[k].detection.stmt);
          ASSERT_EQ(actual[k].metrics.read_speedup, expected[k].metrics.read_speedup);
          ASSERT_EQ(actual[k].metrics.write_speedup, expected[k].metrics.write_speedup);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sqlcheck

#include "data/dataset.h"

#include <gtest/gtest.h>

namespace rankhow {
namespace {

Dataset SmallData() {
  Dataset d({"A1", "A2", "A3"}, 3);
  // r = (3,2,8), s = (4,1,15), t = (1,1,14) — paper Example 4.
  d.set_value(0, 0, 3);
  d.set_value(0, 1, 2);
  d.set_value(0, 2, 8);
  d.set_value(1, 0, 4);
  d.set_value(1, 1, 1);
  d.set_value(1, 2, 15);
  d.set_value(2, 0, 1);
  d.set_value(2, 1, 1);
  d.set_value(2, 2, 14);
  return d;
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d = SmallData();
  EXPECT_EQ(d.num_tuples(), 3);
  EXPECT_EQ(d.num_attributes(), 3);
  EXPECT_EQ(d.attribute_name(1), "A2");
  EXPECT_DOUBLE_EQ(d.value(1, 2), 15);
  EXPECT_EQ(*d.AttributeIndex("A3"), 2);
  EXPECT_FALSE(d.AttributeIndex("nope").ok());
}

TEST(DatasetTest, DiffVectorMatchesExampleFour) {
  Dataset d = SmallData();
  // delta_sr hyperplane: w1 - w2 + 7 w3 (s - r).
  EXPECT_EQ(d.DiffVector(1, 0), (std::vector<double>{1, -1, 7}));
  // delta_tr: -2w1 - w2 + 6w3.
  EXPECT_EQ(d.DiffVector(2, 0), (std::vector<double>{-2, -1, 6}));
}

TEST(DatasetTest, ScoresAndScoreOfAgree) {
  Dataset d = SmallData();
  std::vector<double> w = {0.2, 0.3, 0.5};
  auto scores = d.Scores(w);
  for (int t = 0; t < d.num_tuples(); ++t) {
    EXPECT_DOUBLE_EQ(scores[t], d.ScoreOf(t, w));
  }
}

TEST(DatasetTest, NegateColumn) {
  Dataset d = SmallData();
  d.NegateColumn(0);
  EXPECT_DOUBLE_EQ(d.value(0, 0), -3);
}

TEST(DatasetTest, NormalizeMinMax) {
  Dataset d({"A", "C"}, 3);
  d.set_value(0, 0, 10);
  d.set_value(1, 0, 20);
  d.set_value(2, 0, 30);
  for (int t = 0; t < 3; ++t) d.set_value(t, 1, 7);  // constant column
  auto ranges = d.NormalizeMinMax();
  EXPECT_DOUBLE_EQ(d.value(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.value(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.value(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.value(1, 1), 0.0);  // constant maps to 0
  EXPECT_EQ(ranges[0], (std::pair<double, double>{10, 30}));
}

TEST(DatasetTest, SelectTuplesAndAttributes) {
  Dataset d = SmallData();
  Dataset sub = d.SelectTuples({2, 0});
  EXPECT_EQ(sub.num_tuples(), 2);
  EXPECT_DOUBLE_EQ(sub.value(0, 2), 14);
  EXPECT_DOUBLE_EQ(sub.value(1, 0), 3);
  Dataset cols = d.SelectAttributes({2, 0});
  EXPECT_EQ(cols.num_attributes(), 2);
  EXPECT_EQ(cols.attribute_name(0), "A3");
  EXPECT_DOUBLE_EQ(cols.value(1, 0), 15);
}

TEST(DatasetTest, DropDuplicateTuples) {
  Dataset d({"A"}, 4);
  d.set_value(0, 0, 1);
  d.set_value(1, 0, 2);
  d.set_value(2, 0, 1);  // duplicate of tuple 0
  d.set_value(3, 0, 3);
  auto keep = d.DropDuplicateTuples();
  EXPECT_EQ(keep, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(d.num_tuples(), 3);
  EXPECT_DOUBLE_EQ(d.value(2, 0), 3);
}

TEST(DatasetTest, FromCsvParsesNumericTable) {
  CsvTable csv;
  csv.header = {"x", "y"};
  csv.rows = {{"1.5", "2"}, {"-3", "4.25"}};
  auto d = Dataset::FromCsv(csv);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_tuples(), 2);
  EXPECT_DOUBLE_EQ(d->value(1, 1), 4.25);
}

TEST(DatasetTest, FromCsvRejectsNonNumeric) {
  CsvTable csv;
  csv.header = {"x"};
  csv.rows = {{"abc"}};
  EXPECT_FALSE(Dataset::FromCsv(csv).ok());
}

TEST(DatasetTest, AddColumn) {
  Dataset d = SmallData();
  int idx = d.AddColumn("A4", {1, 2, 3});
  EXPECT_EQ(idx, 3);
  EXPECT_DOUBLE_EQ(d.value(2, 3), 3);
}

}  // namespace
}  // namespace rankhow

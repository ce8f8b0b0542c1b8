#include <gtest/gtest.h>

#include "catalog/catalog.h"

namespace bati {
namespace {

Table MakeOrders() {
  Table t("orders", 1000.0);
  Column id;
  id.name = "id";
  id.type = ColumnType::kBigInt;
  id.stats.ndv = 1000;
  t.AddColumn(id);
  Column status;
  status.name = "status";
  status.type = ColumnType::kString;
  status.declared_length = 10;
  status.stats.ndv = 4;
  t.AddColumn(status);
  return t;
}

TEST(ColumnWidth, PerTypeWidths) {
  EXPECT_EQ(ColumnWidthBytes(ColumnType::kInt, 0), 4);
  EXPECT_EQ(ColumnWidthBytes(ColumnType::kBigInt, 0), 8);
  EXPECT_EQ(ColumnWidthBytes(ColumnType::kDouble, 0), 8);
  EXPECT_EQ(ColumnWidthBytes(ColumnType::kDate, 0), 4);
  EXPECT_EQ(ColumnWidthBytes(ColumnType::kString, 25), 25);
  // String width never collapses to zero.
  EXPECT_EQ(ColumnWidthBytes(ColumnType::kString, 0), 1);
}

TEST(Table, ColumnLookupAndWidths) {
  Table t = MakeOrders();
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.FindColumn("status"), 1);
  EXPECT_EQ(t.FindColumn("nope"), -1);
  EXPECT_DOUBLE_EQ(t.RowWidthBytes(), 18.0);
  EXPECT_DOUBLE_EQ(t.SizeBytes(), 18000.0);
}

TEST(Database, AddAndResolve) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(MakeOrders()).ok());
  EXPECT_EQ(db.num_tables(), 1);
  EXPECT_EQ(db.FindTable("orders"), 0);
  EXPECT_EQ(db.FindTable("missing"), -1);

  const ColumnRef ref{0, db.table(0).FindColumn("status")};
  EXPECT_EQ(ref.column_id, 1);
  EXPECT_EQ(db.column(ref).name, "status");
  EXPECT_EQ(db.table(0).FindColumn("x"), -1);
}

TEST(Database, RejectsDuplicateTableNames) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(MakeOrders()).ok());
  auto dup = db.AddTable(MakeOrders());
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

TEST(Database, TotalSize) {
  Database db("test");
  ASSERT_TRUE(db.AddTable(MakeOrders()).ok());
  Table other("other", 500.0);
  Column c;
  c.name = "v";
  c.type = ColumnType::kInt;
  other.AddColumn(c);
  ASSERT_TRUE(db.AddTable(std::move(other)).ok());
  EXPECT_DOUBLE_EQ(db.TotalSizeBytes(), 18000.0 + 2000.0);
}

TEST(ColumnRef, Ordering) {
  ColumnRef a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);
  EXPECT_TRUE(a == (ColumnRef{1, 2}));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace bati

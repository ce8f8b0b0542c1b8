#include <memory>

#include <gtest/gtest.h>

#include "storage/index.h"
#include "workload/schema_util.h"

namespace bati {
namespace {

using schema_util::IntCol;
using schema_util::StrCol;

std::shared_ptr<Database> Db() {
  auto db = std::make_shared<Database>("db");
  Table t("t", 100000);
  t.AddColumn(IntCol("k", 100000, 0, 100000));  // 4 bytes
  t.AddColumn(IntCol("a", 100, 0, 100));        // 4 bytes
  t.AddColumn(StrCol("s", 20, 50));             // 20 bytes
  BATI_CHECK_OK(db->AddTable(std::move(t)).status());
  return db;
}

TEST(Index, CanonicalizeDedupesAndRemovesKeyOverlap) {
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {0, 1};
  ix.include_columns = {2, 1, 2, 0};
  ix.Canonicalize();
  EXPECT_EQ(ix.include_columns, (std::vector<int>{2}));
}

TEST(Index, CanonicalizeWithEmptyKeyListKeepsSortedUniqueIncludes) {
  // A keyless index is degenerate but must not crash: every include
  // survives (there are no keys to overlap), sorted and deduped.
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {};
  ix.include_columns = {2, 0, 2, 1, 0};
  ix.Canonicalize();
  EXPECT_TRUE(ix.key_columns.empty());
  EXPECT_EQ(ix.include_columns, (std::vector<int>{0, 1, 2}));
}

TEST(Index, CanonicalizeWhenEveryIncludeIsAKey) {
  // include == key overlap in full: the include list canonicalizes to
  // empty and the index compares equal to its bare-key form.
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {0, 1, 2};
  ix.include_columns = {2, 2, 0, 1};
  ix.Canonicalize();
  EXPECT_TRUE(ix.include_columns.empty());
  Index bare;
  bare.table_id = 0;
  bare.key_columns = {0, 1, 2};
  EXPECT_TRUE(ix == bare);
  EXPECT_EQ(ix.Hash(), bare.Hash());
}

TEST(Index, CanonicalizeIsIdempotent) {
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {1};
  ix.include_columns = {2, 0, 2};
  ix.Canonicalize();
  const std::vector<int> once = ix.include_columns;
  ix.Canonicalize();
  EXPECT_EQ(ix.include_columns, once);
  EXPECT_EQ(ix.include_columns, (std::vector<int>{0, 2}));
}

TEST(Index, EqualityDependsOnKeyOrder) {
  Index a, b;
  a.table_id = b.table_id = 0;
  a.key_columns = {0, 1};
  b.key_columns = {1, 0};
  EXPECT_FALSE(a == b);
  b.key_columns = {0, 1};
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(Index, HashDistinguishesKeyFromInclude) {
  Index a, b;
  a.table_id = b.table_id = 0;
  a.key_columns = {0};
  a.include_columns = {1};
  b.key_columns = {0, 1};
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(Index, LeafRowBytesAndSize) {
  auto db = Db();
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {1};       // 4 bytes
  ix.include_columns = {2};   // 20 bytes
  // 10 bytes overhead + 24 bytes columns.
  EXPECT_DOUBLE_EQ(ix.LeafRowBytes(*db), 34.0);
  EXPECT_NEAR(ix.SizeBytes(*db), 100000 * 34.0 * 1.05, 1.0);
}

TEST(Index, CoversRequiredColumns) {
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {1};
  ix.include_columns = {2};
  EXPECT_TRUE(ix.Covers({1}));
  EXPECT_TRUE(ix.Covers({1, 2}));
  EXPECT_TRUE(ix.Covers({}));
  EXPECT_FALSE(ix.Covers({0}));
  EXPECT_FALSE(ix.Covers({1, 0}));
}

TEST(Index, NameIsHumanReadable) {
  auto db = Db();
  Index ix;
  ix.table_id = 0;
  ix.key_columns = {1, 0};
  ix.include_columns = {2};
  std::string name = ix.Name(*db);
  EXPECT_NE(name.find("t"), std::string::npos);
  EXPECT_NE(name.find("a"), std::string::npos);
  EXPECT_NE(name.find("inc1"), std::string::npos);
}

}  // namespace
}  // namespace bati

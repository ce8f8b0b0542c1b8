#ifndef BATI_WORKLOAD_LOADER_H_
#define BATI_WORKLOAD_LOADER_H_

#include <memory>
#include <string>
#include <string_view>

#include "catalog/catalog.h"
#include "common/status.h"
#include "workload/query.h"

namespace bati {

/// Builds a statistics-only Database from a DDL script of CREATE TABLE
/// statements (with NDV/RANGE/ROWS annotations; see sql/ddl.h). This is the
/// path for tuning a user's own schema without writing C++.
StatusOr<std::shared_ptr<Database>> LoadSchemaFromDdl(
    std::string database_name, std::string_view ddl_script);

/// Parses and binds a script of semicolon-separated SELECT statements into a
/// workload against `db`. Statements are named q1, q2, ... in order.
StatusOr<Workload> LoadWorkloadFromSql(std::string workload_name,
                                       std::shared_ptr<const Database> db,
                                       std::string_view sql_script);

/// Inverse of LoadSchemaFromDdl: renders a database as an annotated DDL
/// script (CREATE TABLE ... NDV/RANGE ... WITH (ROWS = n)). Histograms are
/// not representable in the DDL dialect and are dropped; everything else
/// round-trips (see loader tests).
std::string DumpSchemaDdl(const Database& db);

/// Renders a workload as a ';'-separated SQL script (one statement per
/// query, preceded by a "-- name" comment). Round-trips through
/// LoadWorkloadFromSql.
std::string DumpWorkloadSql(const Workload& workload);

}  // namespace bati

#endif  // BATI_WORKLOAD_LOADER_H_

// The tests' one entry to the prepared-query lifecycle
// (engine/engine.h): an Engine with one database attached as its
// snapshot. Run goes Prepare → CreateSession → Run, the path the
// CLI and the benchmarks take. A test that loops over schedulers,
// seeds or strategies builds one TestEngine and calls Run once per
// configuration: the plan cache compiles each PlanOptions once, and
// every call runs one session.

#ifndef MPQE_TESTS_TEST_ENGINE_H_
#define MPQE_TESTS_TEST_ENGINE_H_

#include <memory>
#include <utility>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/engine.h"
#include "relational/database.h"

namespace mpqe {

class TestEngine {
 public:
  explicit TestEngine(Database db, EngineOptions options = {})
      : engine_(std::move(options)), snapshot_(engine_.Attach(std::move(db))) {}

  /// Prepares `program` against the snapshot and runs one session of
  /// it. Prepare and CreateSession errors come back as the status.
  StatusOr<EvaluationResult> Run(const Program& program,
                                 const PlanOptions& plan_options = {},
                                 const SessionOptions& session_options = {}) {
    MPQE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> plan,
                          engine_.Prepare(snapshot_, program, plan_options));
    MPQE_ASSIGN_OR_RETURN(
        std::unique_ptr<QuerySession> session,
        engine_.CreateSession(std::move(plan), session_options));
    last_query_id_ = session->query_id();
    return session->Run();
  }

  /// The engine: its flight recorder holds every session's records.
  Engine& engine() { return engine_; }

  /// The query id of the last session Run created.
  uint64_t last_query_id() const { return last_query_id_; }

  /// The attached database (its symbols format answers and proofs).
  const Database& db() const { return snapshot_->db(); }

 private:
  Engine engine_;
  std::shared_ptr<DatabaseSnapshot> snapshot_;
  uint64_t last_query_id_ = 0;
};

}  // namespace mpqe

#endif  // MPQE_TESTS_TEST_ENGINE_H_

// The setup each paper benchmark does outside its timed loop: an
// Engine, the workload's EDB attached as its snapshot, and the query
// prepared against it (parse, adornment, sips, graph build, EDB
// indexes). Run() is the timed part: one CreateSession + Run of the
// prepared plan, the path every engine caller takes. Errors abort —
// a benchmark has no error path.

#ifndef MPQE_BENCH_PREPARED_WORKLOAD_H_
#define MPQE_BENCH_PREPARED_WORKLOAD_H_

#include <memory>
#include <utility>

#include "common/logging.h"
#include "datalog/program.h"
#include "engine/engine.h"
#include "relational/database.h"

namespace mpqe {

class PreparedWorkload {
 public:
  PreparedWorkload(Database db, const Program& program,
                   const PlanOptions& options = {}) {
    auto plan = engine_.Prepare(engine_.Attach(std::move(db)), program,
                                options);
    MPQE_CHECK(plan.ok()) << plan.status();
    plan_ = *std::move(plan);
  }

  EvaluationResult Run(const SessionOptions& options = {}) {
    auto session = engine_.CreateSession(plan_, options);
    MPQE_CHECK(session.ok()) << session.status();
    auto result = (*session)->Run();
    MPQE_CHECK(result.ok()) << result.status();
    return *std::move(result);
  }

 private:
  Engine engine_;
  std::shared_ptr<const PreparedQuery> plan_;
};

}  // namespace mpqe

#endif  // MPQE_BENCH_PREPARED_WORKLOAD_H_

#include <iomanip>
#include <sstream>

#include "plan/logical_plan.h"

namespace joinboost {
namespace plan {

namespace {

void Render(const LogicalOp& op, int depth, std::ostream& os) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << OperatorLabel(op) << "\n";
  for (const auto& c : op.children) Render(*c, depth + 1, os);
}

}  // namespace

std::string Explain(const LogicalPlan& plan) {
  std::ostringstream os;
  if (plan.root) Render(*plan.root, 0, os);
  if (plan.joins_reordered || plan.predicates_pushed > 0 ||
      plan.constants_folded > 0) {
    os << "-- rules:";
    if (plan.predicates_pushed > 0) {
      os << " pushed=" << plan.predicates_pushed;
    }
    if (plan.constants_folded > 0) {
      os << " folded=" << plan.constants_folded;
    }
    if (plan.joins_reordered) {
      os << (plan.joins_reordered_dp ? " joins-reordered-dp"
                                     : " joins-reordered");
    }
    os << "\n";
  }
  return os.str();
}

std::string FormatStats(const PlanStats& s) {
  std::ostringstream os;
  s.ForEach([&os](const CounterInfo& c, size_t value) {
    os << std::left << std::setw(25) << c.name << value << "\n";
  });
  return os.str();
}

}  // namespace plan
}  // namespace joinboost

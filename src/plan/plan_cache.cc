#include "plan/plan_cache.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace joinboost {
namespace plan {

namespace {

bool IsLiteralKind(sql::ExprKind k) {
  return k == sql::ExprKind::kIntLiteral || k == sql::ExprKind::kFloatLiteral ||
         k == sql::ExprKind::kStringLiteral;
}

bool IsComparison(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool ContainsColumnRef(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kColumnRef) return true;
  for (const auto& a : e.args) {
    if (a && ContainsColumnRef(*a)) return true;
  }
  return false;
}

/// Serializer state: maps column qualifiers seen in the current FROM scope to
/// slot ids. The slot counter is shared across nested scopes so subquery
/// tables get distinct slots.
struct KeyBuilder {
  const Catalog* catalog = nullptr;
  std::ostringstream os;
  int next_slot = 0;

  std::string FloatRepr(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  void Literal(const sql::Expr& e, bool param_pos) {
    if (param_pos) {
      os << "?";
      return;
    }
    switch (e.kind) {
      case sql::ExprKind::kIntLiteral:
        os << "i" << e.int_val;
        break;
      case sql::ExprKind::kFloatLiteral:
        os << "f" << FloatRepr(e.float_val);
        break;
      case sql::ExprKind::kStringLiteral:
        os << "s'" << e.str_val << "'";
        break;
      default:
        os << "lit?";
        break;
    }
  }

  void Expr(const sql::Expr& e, const std::map<std::string, int>& scope) {
    switch (e.kind) {
      case sql::ExprKind::kColumnRef: {
        os << "c[";
        if (!e.table.empty()) {
          auto it = scope.find(e.table);
          if (it != scope.end()) {
            os << "T" << it->second;
          } else {
            os << e.table;  // unknown qualifier: keep verbatim
          }
        }
        os << "." << e.column << "]";
        break;
      }
      case sql::ExprKind::kIntLiteral:
      case sql::ExprKind::kFloatLiteral:
      case sql::ExprKind::kStringLiteral:
        Literal(e, /*param_pos=*/false);
        break;
      case sql::ExprKind::kNullLiteral:
        os << "null";
        break;
      case sql::ExprKind::kStar:
        os << "*";
        break;
      case sql::ExprKind::kBinary: {
        os << e.op << "(";
        // Parameter stripping: a literal compared against a column-bearing
        // side can never constant-fold, so its value cannot change the plan
        // shape — it is a query parameter. Everywhere else values stay.
        bool strip_l = false, strip_r = false;
        if (IsComparison(e.op) && e.args.size() == 2) {
          const bool l_lit = IsLiteralKind(e.args[0]->kind);
          const bool r_lit = IsLiteralKind(e.args[1]->kind);
          strip_l = l_lit && !r_lit && ContainsColumnRef(*e.args[1]);
          strip_r = r_lit && !l_lit && ContainsColumnRef(*e.args[0]);
        }
        if (strip_l) {
          Literal(*e.args[0], true);
        } else {
          Expr(*e.args[0], scope);
        }
        os << ",";
        if (strip_r) {
          Literal(*e.args[1], true);
        } else {
          Expr(*e.args[1], scope);
        }
        os << ")";
        break;
      }
      case sql::ExprKind::kUnary:
        os << e.op << "(";
        Expr(*e.args[0], scope);
        os << ")";
        break;
      case sql::ExprKind::kFuncCall:
      case sql::ExprKind::kAggCall: {
        os << (e.kind == sql::ExprKind::kAggCall ? "agg:" : "fn:") << e.op
           << "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i) os << ",";
          Expr(*e.args[i], scope);
        }
        os << ")";
        break;
      }
      case sql::ExprKind::kWindowAgg: {
        os << "win:" << e.op << "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i) os << ",";
          Expr(*e.args[i], scope);
        }
        os << ";p:";
        for (const auto& p : e.partition_by) Expr(*p, scope);
        os << ";o:";
        for (const auto& o : e.order_by) Expr(*o, scope);
        os << ")";
        break;
      }
      case sql::ExprKind::kCase: {
        os << "case" << (e.has_else ? "e" : "") << "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i) os << ",";
          Expr(*e.args[i], scope);
        }
        os << ")";
        break;
      }
      case sql::ExprKind::kInList: {
        os << "in" << (e.negated ? "!" : "") << "(";
        Expr(*e.args[0], scope);
        // Elements are parameters when the probe bears a column; keep the
        // element count — list length feeds selectivity and IN-set sizing.
        const bool strip = ContainsColumnRef(*e.args[0]);
        os << ";" << (e.args.size() - 1) << ";";
        for (size_t i = 1; i < e.args.size(); ++i) {
          if (i > 1) os << ",";
          if (strip && IsLiteralKind(e.args[i]->kind)) {
            Literal(*e.args[i], true);
          } else {
            Expr(*e.args[i], scope);
          }
        }
        os << ")";
        break;
      }
      case sql::ExprKind::kInSubquery: {
        os << "insub" << (e.negated ? "!" : "") << "(";
        if (!e.args.empty()) Expr(*e.args[0], scope);  // empty: scalar subquery
        os << ";";
        Select(*e.subquery);
        os << ")";
        break;
      }
      case sql::ExprKind::kIsNull:
        os << "isnull" << (e.negated ? "!" : "") << "(";
        Expr(*e.args[0], scope);
        os << ")";
        break;
    }
    if (!e.alias.empty()) os << "as:" << e.alias;
  }

  void TableSlot(const sql::TableRef& ref, std::map<std::string, int>* scope) {
    const int slot = next_slot++;
    (*scope)[ref.Qualifier()] = slot;
    os << "T" << slot << "{";
    if (ref.kind == sql::TableRef::Kind::kBase) {
      // Schema fingerprint: the key must separate tables whose shape (and
      // thus binding/pruning behaviour) differs, while letting the trainer's
      // uniquely-named temp tables share a slot.
      TablePtr tbl = catalog->GetOrNull(ref.name);
      if (!tbl) {
        os << "missing:" << ref.name;
      } else {
        for (const auto& f : tbl->schema().fields()) {
          os << f.name << ":" << static_cast<int>(f.type) << ",";
        }
      }
    } else {
      os << "sub:";
      Select(*ref.subquery);
    }
    os << "}";
  }

  void Select(const sql::SelectStmt& stmt) {
    std::map<std::string, int> scope;
    os << "S(";
    if (stmt.has_from) {
      os << "from:";
      TableSlot(stmt.from, &scope);
      for (const auto& jc : stmt.joins) {
        os << "|j" << static_cast<int>(jc.type) << ":";
        TableSlot(jc.table, &scope);
      }
      // Conditions serialize after every relation is slotted, matching the
      // planner's whole-FROM resolution scope.
      for (const auto& jc : stmt.joins) {
        os << "|on:";
        if (jc.condition) Expr(*jc.condition, scope);
      }
    }
    os << "|sel" << (stmt.distinct ? "!" : "") << ":";
    for (const auto& item : stmt.select_list) Expr(*item, scope);
    os << "|w:";
    if (stmt.where) Expr(*stmt.where, scope);
    os << "|g:";
    for (const auto& g : stmt.group_by) Expr(*g, scope);
    os << "|gs:";
    for (const auto& gs : stmt.grouping_sets) {
      os << "(";
      for (const auto& g : gs) Expr(*g, scope);
      os << ")";
    }
    os << "|h:";
    if (stmt.having) Expr(*stmt.having, scope);
    os << "|o:";
    for (const auto& o : stmt.order_by) {
      Expr(*o.expr, scope);
      if (o.desc) os << "D";
    }
    os << "|l:" << stmt.limit << ")";
  }
};

}  // namespace

std::string PlanCache::ShapeKey(const sql::SelectStmt& stmt,
                                const Catalog& catalog) {
  KeyBuilder kb;
  kb.catalog = &catalog;
  kb.Select(stmt);
  return kb.os.str();
}

bool PlanCache::Lookup(const std::string& key, CachedPlan* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  *out = it->second;
  return true;
}

bool PlanCache::Lookup(const std::string& key,
                       const std::vector<TableStamp>& current,
                       CachedPlan* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  // Slot-wise staleness check. A different table name in the same slot is
  // shape sharing (trainer temp tables) — always valid. The *same* name with
  // a changed uid or data version means the table the join order was costed
  // on has been appended to, updated, or swapped: evict and re-plan.
  const auto& stamps = it->second.stamps;
  const size_t n = std::min(stamps.size(), current.size());
  for (size_t i = 0; i < n; ++i) {
    if (stamps[i].name == current[i].name && !(stamps[i] == current[i])) {
      map_.erase(it);
      ++evictions_;
      return false;
    }
  }
  *out = it->second;
  return true;
}

void PlanCache::Insert(const std::string& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.size() >= kMaxEntries) return;
  map_[key] = std::move(plan);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

size_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

}  // namespace plan
}  // namespace joinboost

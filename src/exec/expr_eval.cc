#include "exec/expr_eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "util/hash.h"

namespace joinboost {
namespace exec {

namespace {

bool IsComparison(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

bool Truthy(int64_t c) { return c != 0 && c != kNullInt64; }

double NullSafeToDouble(const VectorData& v, size_t i) {
  if (v.type == TypeId::kFloat64) return (*v.dbls)[i];
  int64_t x = (*v.ints)[i];
  if (x == kNullInt64) return NullFloat64();
  return static_cast<double>(x);
}

// ---- Per-row kernels with operator and type dispatch hoisted out ----
//
// Each With* helper inspects the operator or the operand type once and calls
// `fn` with a compile-time tag, so the loop `fn` instantiates is branch-free
// on both. Every row is computed by the same scalar operation as before.

enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

template <ArithOp kOp>
using ArithTag = std::integral_constant<ArithOp, kOp>;
template <CmpOp kOp>
using CmpTag = std::integral_constant<CmpOp, kOp>;

template <typename Fn>
auto WithArithOp(const std::string& op, Fn&& fn) {
  if (op == "+") return fn(ArithTag<ArithOp::kAdd>{});
  if (op == "-") return fn(ArithTag<ArithOp::kSub>{});
  if (op == "*") return fn(ArithTag<ArithOp::kMul>{});
  if (op == "/") return fn(ArithTag<ArithOp::kDiv>{});
  if (op == "%") return fn(ArithTag<ArithOp::kMod>{});
  JB_THROW("unknown binary operator " << op);
}

template <typename Fn>
auto WithCmpOp(const std::string& op, Fn&& fn) {
  if (op == "=") return fn(CmpTag<CmpOp::kEq>{});
  if (op == "<>") return fn(CmpTag<CmpOp::kNe>{});
  if (op == "<") return fn(CmpTag<CmpOp::kLt>{});
  if (op == "<=") return fn(CmpTag<CmpOp::kLe>{});
  if (op == ">") return fn(CmpTag<CmpOp::kGt>{});
  return fn(CmpTag<CmpOp::kGe>{});
}

template <CmpOp kOp, typename T>
bool Compare(T x, T y) {
  if constexpr (kOp == CmpOp::kEq) return x == y;
  if constexpr (kOp == CmpOp::kNe) return x != y;
  if constexpr (kOp == CmpOp::kLt) return x < y;
  if constexpr (kOp == CmpOp::kLe) return x <= y;
  if constexpr (kOp == CmpOp::kGt) return x > y;
  if constexpr (kOp == CmpOp::kGe) return x >= y;
}

/// Reads row i of a numeric vector as double (an int64 NULL reads as the
/// double NULL), with the vector's type fixed at compile time.
struct DoubleAt {
  const double* p;
  double operator()(size_t i) const { return p[i]; }
};
struct IntAsDoubleAt {
  const int64_t* p;
  double operator()(size_t i) const {
    return p[i] == kNullInt64 ? NullFloat64() : static_cast<double>(p[i]);
  }
};

template <typename Fn>
auto WithDoubleReader(const VectorData& v, Fn&& fn) {
  if (v.type == TypeId::kFloat64) {
    return fn(DoubleAt{v.dbls ? v.dbls->data() : nullptr});
  }
  return fn(IntAsDoubleAt{v.ints ? v.ints->data() : nullptr});
}

VectorData EvalNumericBinary(const std::string& op, const VectorData& l,
                             const VectorData& r, size_t rows) {
  bool as_double = l.type == TypeId::kFloat64 || r.type == TypeId::kFloat64 ||
                   op == "/";
  if (!as_double) {
    const int64_t* a = l.Ints().data();
    const int64_t* b = r.Ints().data();
    std::vector<int64_t> out(rows);
    WithArithOp(op, [&](auto tag) {
      constexpr ArithOp kOp = decltype(tag)::value;
      for (size_t i = 0; i < rows; ++i) {
        int64_t x = a[i], y = b[i];
        if (x == kNullInt64 || y == kNullInt64) {
          out[i] = kNullInt64;
        } else if constexpr (kOp == ArithOp::kAdd) {
          out[i] = x + y;
        } else if constexpr (kOp == ArithOp::kSub) {
          out[i] = x - y;
        } else if constexpr (kOp == ArithOp::kMul) {
          out[i] = x * y;
        } else if constexpr (kOp == ArithOp::kMod) {
          out[i] = y == 0 ? kNullInt64 : x % y;
        }  // kDiv always takes the double path
      }
    });
    return VectorData::FromInts(std::move(out));
  }
  std::vector<double> out(rows);
  WithDoubleReader(l, [&](auto a) {
    WithDoubleReader(r, [&](auto b) {
      WithArithOp(op, [&](auto tag) {
        constexpr ArithOp kOp = decltype(tag)::value;
        for (size_t i = 0; i < rows; ++i) {
          double x = a(i), y = b(i);
          if (IsNullFloat64(x) || IsNullFloat64(y)) {
            out[i] = NullFloat64();
          } else if constexpr (kOp == ArithOp::kAdd) {
            out[i] = x + y;
          } else if constexpr (kOp == ArithOp::kSub) {
            out[i] = x - y;
          } else if constexpr (kOp == ArithOp::kMul) {
            out[i] = x * y;
          } else if constexpr (kOp == ArithOp::kDiv) {
            out[i] = y == 0.0 ? NullFloat64() : x / y;
          } else {
            out[i] = std::fmod(x, y);
          }
        }
      });
    });
  });
  return VectorData::FromDoubles(std::move(out));
}

VectorData EvalComparison(const std::string& op, const VectorData& l,
                          const VectorData& r, size_t rows) {
  std::vector<int64_t> out(rows);
  bool string_cmp = l.type == TypeId::kString && r.type == TypeId::kString;
  if (string_cmp && l.dict && r.dict && l.dict != r.dict) {
    // Different dictionaries: compare decoded strings (slow path).
    const auto& a = l.Ints();
    const auto& b = r.Ints();
    WithCmpOp(op, [&](auto tag) {
      constexpr CmpOp kOp = decltype(tag)::value;
      for (size_t i = 0; i < rows; ++i) {
        if (a[i] == kNullInt64 || b[i] == kNullInt64) {
          out[i] = 0;
          continue;
        }
        int c = l.dict->At(a[i]).compare(r.dict->At(b[i]));
        out[i] = Compare<kOp>(c, 0) ? 1 : 0;
      }
    });
    return VectorData::FromInts(std::move(out));
  }
  // Numeric / same-dict code comparison.
  WithDoubleReader(l, [&](auto a) {
    WithDoubleReader(r, [&](auto b) {
      WithCmpOp(op, [&](auto tag) {
        constexpr CmpOp kOp = decltype(tag)::value;
        for (size_t i = 0; i < rows; ++i) {
          double x = a(i), y = b(i);
          out[i] = !IsNullFloat64(x) && !IsNullFloat64(y) && Compare<kOp>(x, y)
                       ? 1
                       : 0;
        }
      });
    });
  });
  return VectorData::FromInts(std::move(out));
}

/// IN membership per row: `found != negated`. A NULL int probe is never
/// found; float probes match on their bit pattern.
VectorData ProbeValueSet(const VectorData& probe, const hash::ValueSet& set,
                         bool as_double, bool negated, size_t rows) {
  std::vector<int64_t> out(rows);
  if (as_double) {
    const auto& d = probe.Dbls();
    for (size_t i = 0; i < rows; ++i) {
      int64_t bits;
      std::memcpy(&bits, &d[i], 8);
      out[i] = set.Contains(static_cast<uint64_t>(bits)) != negated ? 1 : 0;
    }
  } else {
    const auto& x = probe.Ints();
    for (size_t i = 0; i < rows; ++i) {
      bool found =
          x[i] != kNullInt64 && set.Contains(static_cast<uint64_t>(x[i]));
      out[i] = found != negated ? 1 : 0;
    }
  }
  return VectorData::FromInts(std::move(out));
}

/// Translate a string literal to the dictionary code space of `other`.
VectorData BroadcastLiteralForColumn(const sql::Expr& lit, size_t rows,
                                     const VectorData* other) {
  if (lit.kind == sql::ExprKind::kStringLiteral && other &&
      other->type == TypeId::kString && other->dict) {
    int64_t code = other->dict->Find(lit.str_val);
    VectorData out;
    out.type = TypeId::kString;
    out.dict = other->dict;
    out.ints = std::make_shared<const std::vector<int64_t>>(
        std::vector<int64_t>(rows, code));
    return out;
  }
  switch (lit.kind) {
    case sql::ExprKind::kIntLiteral:
      return VectorData::FromInts(std::vector<int64_t>(rows, lit.int_val));
    case sql::ExprKind::kFloatLiteral:
      return VectorData::FromDoubles(std::vector<double>(rows, lit.float_val));
    case sql::ExprKind::kNullLiteral:
      return VectorData::FromDoubles(std::vector<double>(rows, NullFloat64()));
    case sql::ExprKind::kStringLiteral: {
      // String literal without dictionary context: build a private dict.
      auto dict = std::make_shared<Dictionary>();
      int64_t code = dict->GetOrAdd(lit.str_val);
      return VectorData::FromCodes(std::vector<int64_t>(rows, code), dict);
    }
    default:
      JB_THROW("not a literal");
  }
}

bool IsLiteral(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kIntLiteral ||
         e.kind == sql::ExprKind::kFloatLiteral ||
         e.kind == sql::ExprKind::kStringLiteral ||
         e.kind == sql::ExprKind::kNullLiteral;
}

VectorData EvalFunc(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx);

/// The column refs and overridden nodes `e` reads. Neither overridden nodes
/// nor subquery bodies (which resolve against their own FROM) are entered.
void CollectInputs(const sql::Expr& e, const EvalContext& ctx,
                   std::vector<const sql::Expr*>* refs,
                   std::vector<const sql::Expr*>* overridden) {
  if (ctx.overrides.count(&e)) {
    overridden->push_back(&e);
    return;
  }
  if (e.kind == sql::ExprKind::kColumnRef) {
    refs->push_back(&e);
    return;
  }
  for (const auto& a : e.args) CollectInputs(*a, ctx, refs, overridden);
}

/// Evaluate `e` over only the rows `sel` (ascending) of `input`. The columns
/// and overrides `e` reads are gathered to those rows; the subquery caches in
/// `ctx` stay shared, so each subquery still runs once per statement.
VectorData EvalOnRows(const sql::Expr& e, const ExecTable& input,
                      const std::vector<uint32_t>& sel, EvalContext& ctx) {
  if (sel.size() == input.rows) return EvalExpr(e, input, ctx);
  std::vector<const sql::Expr*> refs, overridden;
  CollectInputs(e, ctx, &refs, &overridden);
  // Keeping the resolved columns in input order preserves first-match name
  // resolution in the narrowed table.
  std::vector<int> cols;
  for (const auto* r : refs) {
    int idx = input.Find(r->table, r->column);
    if (idx >= 0) cols.push_back(idx);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  ExecTable sub;
  sub.rows = sel.size();
  for (int c : cols) {
    const ExecColumn& col = input.cols[static_cast<size_t>(c)];
    sub.cols.push_back({col.qualifier, col.name, col.data.Gather(sel)});
  }
  std::unordered_map<const sql::Expr*, VectorData> overrides;
  for (const auto* n : overridden) {
    overrides.emplace(n, ctx.overrides.at(n).Gather(sel));
  }
  ctx.overrides.swap(overrides);
  VectorData out;
  try {
    out = EvalExpr(e, sub, ctx);
  } catch (...) {
    ctx.overrides.swap(overrides);
    throw;
  }
  ctx.overrides.swap(overrides);
  return out;
}

/// CASE over a selection vector: WHEN_k runs only on the rows no earlier
/// WHEN claimed, THEN_k only on the rows WHEN_k claims, and ELSE only on the
/// rows left over; each result is scattered into one output vector. The
/// trainer's leaf conditions partition the fact, so a residual update's
/// THENs cost one pass over it in total instead of one per leaf. Every
/// branch is evaluated, over zero rows if need be: that fixes the result
/// type as a whole-input evaluation would, and runs each subquery once.
VectorData EvalCase(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx) {
  const size_t pairs = (e.args.size() - (e.has_else ? 1 : 0)) / 2;
  std::vector<uint32_t> remaining(input.rows);
  std::iota(remaining.begin(), remaining.end(), 0u);
  // Each branch's rows and values; scattered once the result type is known.
  std::vector<std::pair<std::vector<uint32_t>, VectorData>> parts;
  parts.reserve(pairs + 1);
  for (size_t p = 0; p < pairs; ++p) {
    VectorData cond = EvalOnRows(*e.args[2 * p], input, remaining, ctx);
    const auto& c = cond.Ints();
    std::vector<uint32_t> matched;
    matched.reserve(
        static_cast<size_t>(std::count_if(c.begin(), c.end(), Truthy)));
    size_t kept = 0;
    for (size_t j = 0; j < remaining.size(); ++j) {
      if (Truthy(c[j])) {
        matched.push_back(remaining[j]);
      } else {
        remaining[kept++] = remaining[j];
      }
    }
    remaining.resize(kept);
    VectorData val = EvalOnRows(*e.args[2 * p + 1], input, matched, ctx);
    parts.emplace_back(std::move(matched), std::move(val));
  }
  if (e.has_else) {
    VectorData val = EvalOnRows(*e.args.back(), input, remaining, ctx);
    parts.emplace_back(std::move(remaining), std::move(val));
  }
  // Result typed double if any branch is double, else int.
  bool as_double = false;
  for (const auto& part : parts) {
    as_double |= part.second.type == TypeId::kFloat64;
  }
  if (as_double) {
    std::vector<double> out(input.rows, NullFloat64());
    for (const auto& [sel, v] : parts) {
      WithDoubleReader(v, [&, &sel = sel](auto at) {
        for (size_t j = 0; j < sel.size(); ++j) out[sel[j]] = at(j);
      });
    }
    return VectorData::FromDoubles(std::move(out));
  }
  std::vector<int64_t> out(input.rows, kNullInt64);
  for (const auto& [sel, v] : parts) {
    const auto& x = v.Ints();
    for (size_t j = 0; j < sel.size(); ++j) out[sel[j]] = x[j];
  }
  return VectorData::FromInts(std::move(out));
}

std::atomic<size_t> g_in_list_translations{0};

}  // namespace

size_t InListTranslations() { return g_in_list_translations.load(); }
void ResetInListTranslations() { g_in_list_translations.store(0); }

const InListSet& GetOrBuildInListSet(const sql::Expr& e, TypeId probe_type,
                                     const Dictionary* dict, EvalContext& ctx) {
  auto key = std::make_pair(&e, probe_type == TypeId::kString ? dict : nullptr);
  auto cached = ctx.list_sets.find(key);
  if (cached != ctx.list_sets.end()) return *cached->second;

  auto ls = std::make_shared<InListSet>();
  ls->as_double = probe_type == TypeId::kFloat64;
  auto s = std::make_shared<hash::ValueSet>(e.args.size() - 1);
  bool translated = false;
  for (size_t a = 1; a < e.args.size(); ++a) {
    const sql::Expr& lit = *e.args[a];
    int64_t member;
    if (probe_type == TypeId::kString && dict != nullptr &&
        lit.kind == sql::ExprKind::kStringLiteral) {
      member = dict->Find(lit.str_val);
      translated = true;
    } else if (ls->as_double) {
      double d = lit.kind == sql::ExprKind::kFloatLiteral
                     ? lit.float_val
                     : static_cast<double>(lit.int_val);
      std::memcpy(&member, &d, 8);
    } else {
      member = lit.kind == sql::ExprKind::kFloatLiteral
                   ? static_cast<int64_t>(lit.float_val)
                   : lit.int_val;
    }
    s->Insert(static_cast<uint64_t>(member));
    // Bounds over int64 members only; kNullInt64 (absent dictionary string)
    // can never match a probe value, so it does not widen the range.
    if (!ls->as_double && member != kNullInt64) {
      if (!ls->has_bounds) {
        ls->min_value = ls->max_value = member;
        ls->has_bounds = true;
      } else {
        ls->min_value = std::min(ls->min_value, member);
        ls->max_value = std::max(ls->max_value, member);
      }
    }
  }
  if (translated) g_in_list_translations.fetch_add(1);
  ls->set = std::move(s);
  return *ctx.list_sets.emplace(key, std::move(ls)).first->second;
}

VectorData EvalExpr(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx) {
  auto ov = ctx.overrides.find(&e);
  if (ov != ctx.overrides.end()) return ov->second;

  const size_t rows = input.rows;
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      int idx = input.FindRequired(e.table, e.column);
      return input.cols[static_cast<size_t>(idx)].data;
    }
    case sql::ExprKind::kIntLiteral:
    case sql::ExprKind::kFloatLiteral:
    case sql::ExprKind::kStringLiteral:
    case sql::ExprKind::kNullLiteral:
      return BroadcastLiteralForColumn(e, rows, nullptr);
    case sql::ExprKind::kBinary: {
      const std::string& op = e.op;
      if (op == "AND" || op == "OR") {
        VectorData l = EvalExpr(*e.args[0], input, ctx);
        VectorData r = EvalExpr(*e.args[1], input, ctx);
        const auto& a = l.Ints();
        const auto& b = r.Ints();
        std::vector<int64_t> out(rows);
        if (op == "AND") {
          for (size_t i = 0; i < rows; ++i) {
            out[i] = Truthy(a[i]) && Truthy(b[i]) ? 1 : 0;
          }
        } else {
          for (size_t i = 0; i < rows; ++i) {
            out[i] = Truthy(a[i]) || Truthy(b[i]) ? 1 : 0;
          }
        }
        return VectorData::FromInts(std::move(out));
      }
      // Dictionary-aware literal handling for string comparisons.
      VectorData l, r;
      if (IsLiteral(*e.args[0]) && !IsLiteral(*e.args[1])) {
        r = EvalExpr(*e.args[1], input, ctx);
        l = BroadcastLiteralForColumn(*e.args[0], rows, &r);
      } else if (IsLiteral(*e.args[1]) && !IsLiteral(*e.args[0])) {
        l = EvalExpr(*e.args[0], input, ctx);
        r = BroadcastLiteralForColumn(*e.args[1], rows, &l);
      } else {
        l = EvalExpr(*e.args[0], input, ctx);
        r = EvalExpr(*e.args[1], input, ctx);
      }
      if (IsComparison(op)) return EvalComparison(op, l, r, rows);
      return EvalNumericBinary(op, l, r, rows);
    }
    case sql::ExprKind::kUnary: {
      VectorData v = EvalExpr(*e.args[0], input, ctx);
      if (e.op == "NOT") {
        const auto& a = v.Ints();
        std::vector<int64_t> out(rows);
        for (size_t i = 0; i < rows; ++i) {
          out[i] = (a[i] == 0) ? 1 : 0;
        }
        return VectorData::FromInts(std::move(out));
      }
      // unary minus
      if (v.type == TypeId::kFloat64) {
        std::vector<double> out(rows);
        const auto& a = v.Dbls();
        for (size_t i = 0; i < rows; ++i) out[i] = -a[i];
        return VectorData::FromDoubles(std::move(out));
      }
      std::vector<int64_t> out(rows);
      const auto& a = v.Ints();
      for (size_t i = 0; i < rows; ++i) {
        out[i] = a[i] == kNullInt64 ? kNullInt64 : -a[i];
      }
      return VectorData::FromInts(std::move(out));
    }
    case sql::ExprKind::kFuncCall:
      return EvalFunc(e, input, ctx);
    case sql::ExprKind::kCase:
      return EvalCase(e, input, ctx);
    case sql::ExprKind::kInSubquery: {
      if (e.args.empty()) {
        // Scalar subquery: run once per context, broadcast the value.
        auto it = ctx.scalar_subqueries.find(&e);
        if (it == ctx.scalar_subqueries.end()) {
          JB_CHECK_MSG(ctx.run_subquery, "no subquery runner in context");
          ExecTable sub = ctx.run_subquery(*e.subquery);
          JB_CHECK_MSG(sub.rows == 1 && sub.cols.size() == 1,
                       "scalar subquery must return 1x1");
          it = ctx.scalar_subqueries.emplace(&e, sub.cols[0].data).first;
        }
        const VectorData& v = it->second;
        if (v.type == TypeId::kFloat64) {
          return VectorData::FromDoubles(
              std::vector<double>(rows, (*v.dbls)[0]));
        }
        return VectorData::FromInts(std::vector<int64_t>(rows, (*v.ints)[0]));
      }
      // IN (subquery): the membership set — and the subquery run feeding it
      // — is built once per context and cached on the predicate node.
      std::shared_ptr<const hash::ValueSet> set;
      auto cached = ctx.in_sets.find(&e);
      if (cached != ctx.in_sets.end()) {
        set = cached->second;
      } else {
        JB_CHECK_MSG(ctx.run_subquery, "no subquery runner in context");
        ExecTable sub = ctx.run_subquery(*e.subquery);
        JB_CHECK_MSG(sub.cols.size() == 1, "IN subquery must return 1 column");
        const VectorData& list = sub.cols[0].data;
        auto s = std::make_shared<hash::ValueSet>(sub.rows);
        if (list.type == TypeId::kFloat64) {
          for (double d : list.Dbls()) {
            int64_t bits;
            static_assert(sizeof(double) == sizeof(int64_t));
            std::memcpy(&bits, &d, 8);
            s->Insert(static_cast<uint64_t>(bits));
          }
        } else {
          for (int64_t x : list.Ints()) s->Insert(static_cast<uint64_t>(x));
        }
        set = s;
        ctx.in_sets.emplace(&e, set);
      }
      VectorData probe = EvalExpr(*e.args[0], input, ctx);
      return ProbeValueSet(probe, *set, probe.type == TypeId::kFloat64,
                           e.negated, rows);
    }
    case sql::ExprKind::kInList: {
      VectorData probe = EvalExpr(*e.args[0], input, ctx);
      const InListSet& ls = GetOrBuildInListSet(
          e, probe.type,
          probe.type == TypeId::kString ? probe.dict.get() : nullptr, ctx);
      return ProbeValueSet(probe, *ls.set, ls.as_double, e.negated, rows);
    }
    case sql::ExprKind::kIsNull: {
      VectorData v = EvalExpr(*e.args[0], input, ctx);
      std::vector<int64_t> out(rows);
      for (size_t i = 0; i < rows; ++i) {
        out[i] = (v.IsNull(i) != e.negated) ? 1 : 0;
      }
      return VectorData::FromInts(std::move(out));
    }
    case sql::ExprKind::kStar:
      JB_THROW("'*' is only valid inside COUNT(*) or SELECT *");
    case sql::ExprKind::kAggCall:
      JB_THROW("aggregate outside GROUP BY evaluation: " << e.op);
    case sql::ExprKind::kWindowAgg:
      JB_THROW("window aggregate must be pre-computed by the operator");
  }
  JB_THROW("unhandled expression kind");
}

namespace {

VectorData EvalFunc(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx) {
  const size_t rows = input.rows;
  const std::string& f = e.op;
  auto unary_double = [&](double (*fn)(double)) {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<double> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] = IsNullFloat64(x) ? NullFloat64() : fn(x);
    }
    return VectorData::FromDoubles(std::move(out));
  };
  if (f == "LOG" || f == "LN") {
    return unary_double([](double x) { return std::log(x); });
  }
  if (f == "EXP") return unary_double([](double x) { return std::exp(x); });
  if (f == "SQRT") return unary_double([](double x) { return std::sqrt(x); });
  if (f == "ABS") return unary_double([](double x) { return std::fabs(x); });
  if (f == "SIGN") {
    return unary_double(
        [](double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); });
  }
  if (f == "FLOOR") {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] = IsNullFloat64(x) ? kNullInt64
                                : static_cast<int64_t>(std::floor(x));
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "CEIL") {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] =
          IsNullFloat64(x) ? kNullInt64 : static_cast<int64_t>(std::ceil(x));
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "INT") {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] = IsNullFloat64(x) ? kNullInt64 : static_cast<int64_t>(x);
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "POW" || f == "POWER") {
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    VectorData b = EvalExpr(*e.args[1], input, ctx);
    std::vector<double> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      out[i] = std::pow(NullSafeToDouble(a, i), NullSafeToDouble(b, i));
    }
    return VectorData::FromDoubles(std::move(out));
  }
  if (f == "MOD") {
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    VectorData b = EvalExpr(*e.args[1], input, ctx);
    std::vector<int64_t> out(rows);
    const auto& x = a.Ints();
    const auto& y = b.Ints();
    for (size_t i = 0; i < rows; ++i) {
      if (x[i] == kNullInt64 || y[i] == kNullInt64 || y[i] == 0) {
        out[i] = kNullInt64;
      } else {
        int64_t m = x[i] % y[i];
        out[i] = m < 0 ? m + std::abs(y[i]) : m;
      }
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "HASH") {
    // HASH(x[, seed]) — deterministic 63-bit hash; used for RF row sampling.
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    int64_t seed = 0;
    if (e.args.size() > 1 && e.args[1]->kind == sql::ExprKind::kIntLiteral) {
      seed = e.args[1]->int_val;
    }
    std::vector<int64_t> out(rows);
    const auto& x = a.Ints();
    for (size_t i = 0; i < rows; ++i) {
      out[i] = static_cast<int64_t>(
          SplitMix64(static_cast<uint64_t>(x[i]) ^
                     SplitMix64(static_cast<uint64_t>(seed))) >>
          1);
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "COALESCE") {
    std::vector<VectorData> vs;
    vs.reserve(e.args.size());
    for (const auto& a : e.args) vs.push_back(EvalExpr(*a, input, ctx));
    bool as_double = false;
    for (const auto& v : vs) as_double |= v.type == TypeId::kFloat64;
    if (as_double) {
      std::vector<double> out(rows, NullFloat64());
      for (size_t i = 0; i < rows; ++i) {
        for (const auto& v : vs) {
          double x = NullSafeToDouble(v, i);
          if (!IsNullFloat64(x)) {
            out[i] = x;
            break;
          }
        }
      }
      return VectorData::FromDoubles(std::move(out));
    }
    std::vector<int64_t> out(rows, kNullInt64);
    for (size_t i = 0; i < rows; ++i) {
      for (const auto& v : vs) {
        int64_t x = v.Ints()[i];
        if (x != kNullInt64) {
          out[i] = x;
          break;
        }
      }
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "GREATEST" || f == "LEAST") {
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    VectorData b = EvalExpr(*e.args[1], input, ctx);
    std::vector<double> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(a, i);
      double y = NullSafeToDouble(b, i);
      out[i] = f == "GREATEST" ? std::max(x, y) : std::min(x, y);
    }
    return VectorData::FromDoubles(std::move(out));
  }
  JB_THROW("unknown function " << f);
}

}  // namespace

Value EvalScalar(const sql::Expr& e, const ExecTable& input, size_t row,
                 EvalContext& ctx) {
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      int idx = input.FindRequired(e.table, e.column);
      return input.cols[static_cast<size_t>(idx)].data.GetValue(row);
    }
    case sql::ExprKind::kIntLiteral:
      return Value::Int(e.int_val);
    case sql::ExprKind::kFloatLiteral:
      return Value::Double(e.float_val);
    case sql::ExprKind::kStringLiteral:
      return Value::Str(e.str_val);
    case sql::ExprKind::kNullLiteral:
      return Value::Null(TypeId::kFloat64);
    case sql::ExprKind::kBinary: {
      const std::string& op = e.op;
      Value l = EvalScalar(*e.args[0], input, row, ctx);
      if (op == "AND") {
        bool lx = !l.null && l.AsDouble() != 0;
        if (!lx) return Value::Int(0);
        Value r = EvalScalar(*e.args[1], input, row, ctx);
        return Value::Int(!r.null && r.AsDouble() != 0 ? 1 : 0);
      }
      if (op == "OR") {
        bool lx = !l.null && l.AsDouble() != 0;
        if (lx) return Value::Int(1);
        Value r = EvalScalar(*e.args[1], input, row, ctx);
        return Value::Int(!r.null && r.AsDouble() != 0 ? 1 : 0);
      }
      Value r = EvalScalar(*e.args[1], input, row, ctx);
      if (l.null || r.null) {
        if (IsComparison(op)) return Value::Int(0);
        return Value::Null(TypeId::kFloat64);
      }
      if (l.type == TypeId::kString && r.type == TypeId::kString &&
          IsComparison(op)) {
        int c = l.s.compare(r.s);
        bool res = (op == "=" && c == 0) || (op == "<>" && c != 0) ||
                   (op == "<" && c < 0) || (op == "<=" && c <= 0) ||
                   (op == ">" && c > 0) || (op == ">=" && c >= 0);
        return Value::Int(res ? 1 : 0);
      }
      double x = l.AsDouble();
      double y = r.AsDouble();
      if (IsComparison(op)) {
        bool res = (op == "=" && x == y) || (op == "<>" && x != y) ||
                   (op == "<" && x < y) || (op == "<=" && x <= y) ||
                   (op == ">" && x > y) || (op == ">=" && x >= y);
        return Value::Int(res ? 1 : 0);
      }
      bool as_double = l.type == TypeId::kFloat64 ||
                       r.type == TypeId::kFloat64 || op == "/";
      double v = 0;
      if (op == "+") v = x + y;
      else if (op == "-") v = x - y;
      else if (op == "*") v = x * y;
      else if (op == "/") v = y == 0 ? NullFloat64() : x / y;
      else if (op == "%") v = std::fmod(x, y);
      if (as_double) return Value::Double(v);
      return Value::Int(static_cast<int64_t>(v));
    }
    case sql::ExprKind::kUnary: {
      Value v = EvalScalar(*e.args[0], input, row, ctx);
      if (e.op == "NOT") {
        return Value::Int((v.null || v.AsDouble() == 0) ? 1 : 0);
      }
      if (v.null) return v;
      if (v.type == TypeId::kFloat64) return Value::Double(-v.d);
      return Value::Int(-v.i);
    }
    case sql::ExprKind::kIsNull: {
      Value v = EvalScalar(*e.args[0], input, row, ctx);
      return Value::Int((v.null != e.negated) ? 1 : 0);
    }
    default: {
      // Fall back to a vectorized evaluation over a single gathered row.
      ExecTable one = input.GatherRows({static_cast<uint32_t>(row)});
      VectorData v = EvalExpr(e, one, ctx);
      return v.GetValue(0);
    }
  }
}

std::vector<uint32_t> EvalPredicate(const sql::Expr& e, const ExecTable& input,
                                    EvalContext& ctx, bool row_mode) {
  std::vector<uint32_t> out;
  if (row_mode) {
    // Tuple-at-a-time evaluation: the genuine cost structure of row engines.
    for (size_t i = 0; i < input.rows; ++i) {
      Value v = EvalScalar(e, input, i, ctx);
      if (!v.null && v.AsDouble() != 0) out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  }
  VectorData v = EvalExpr(e, input, ctx);
  const auto& a = v.Ints();
  out.reserve(input.rows / 4);
  for (size_t i = 0; i < input.rows; ++i) {
    if (Truthy(a[i])) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

void CollectAggregates(const sql::ExprPtr& e,
                       std::vector<const sql::Expr*>* out) {
  if (!e) return;
  if (e->kind == sql::ExprKind::kAggCall) {
    out->push_back(e.get());
    return;  // no nested aggregates
  }
  if (e->kind == sql::ExprKind::kWindowAgg) return;
  for (const auto& a : e->args) CollectAggregates(a, out);
}

void CollectWindows(const sql::ExprPtr& e,
                    std::vector<const sql::Expr*>* out) {
  if (!e) return;
  if (e->kind == sql::ExprKind::kWindowAgg) {
    out->push_back(e.get());
    return;
  }
  for (const auto& a : e->args) CollectWindows(a, out);
}

}  // namespace exec
}  // namespace joinboost

#include "cep/predicate.h"

namespace exstream {

Value RefValue(const CompiledRef& ref, const Event& event) {
  if (ref.is_timestamp) return Value(static_cast<int64_t>(event.ts));
  return event.values[ref.attr_index];
}

double RefValueAsDouble(const CompiledRef& ref, const Event& event) {
  if (ref.is_timestamp) return static_cast<double>(event.ts);
  return event.values[ref.attr_index].AsDouble();
}

namespace {

/// The referenced value where it lives; a timestamp is materialized into
/// `*ts` (an int64, which never allocates).
const Value& RefValueIn(const CompiledRef& ref, const Event& event, Value* ts) {
  if (!ref.is_timestamp) return event.values[ref.attr_index];
  *ts = Value(static_cast<int64_t>(event.ts));
  return *ts;
}

}  // namespace

bool CompiledPredicate::Eval(const Event& candidate,
                             const std::vector<Event>& bound) const {
  Value lhs_ts;
  Value rhs_ts;
  const Value& lhs_val = RefValueIn(lhs, candidate, &lhs_ts);
  const Value& rhs_val = rhs_constant.has_value()
                             ? *rhs_constant
                             : RefValueIn(*rhs_ref, bound[rhs_ref->component], &rhs_ts);
  // String-vs-string compares lexicographically; numeric-vs-numeric as
  // doubles. A type mismatch fails the predicate rather than erroring out of
  // the hot path — monitoring should not stall on one malformed event.
  if (lhs_val.is_string() != rhs_val.is_string()) return false;
  const int c = *lhs_val.Compare(rhs_val);
  switch (op) {
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kNe:
      return c != 0;
  }
  return false;
}

}  // namespace exstream

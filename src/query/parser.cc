#include "query/parser.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "query/lexer.h"

namespace exstream {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse(std::string name) {
    Query q;
    q.name = std::move(name);
    EXSTREAM_RETURN_NOT_OK(ExpectKeyword("PATTERN"));
    EXSTREAM_RETURN_NOT_OK(ExpectKeyword("SEQ"));
    EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kLParen));
    for (;;) {
      EXSTREAM_ASSIGN_OR_RETURN(QueryComponent comp, ParseComponent());
      q.components.push_back(std::move(comp));
      if (!Accept(TokenKind::kComma)) break;
    }
    EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRParen));

    if (AcceptKeyword("WHERE")) {
      for (;;) {
        if (Accept(TokenKind::kLBracket)) {
          EXSTREAM_ASSIGN_OR_RETURN(const std::string attr, ExpectIdent());
          EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
          if (!q.partition_attribute.empty()) {
            return Error("duplicate partition attribute");
          }
          q.partition_attribute = attr;
        } else {
          EXSTREAM_ASSIGN_OR_RETURN(QueryPredicate pred, ParsePredicate());
          q.predicates.push_back(std::move(pred));
        }
        if (!AcceptKeyword("AND")) break;
      }
    }

    if (AcceptKeyword("WITHIN")) {
      if (Cur().kind != TokenKind::kNumber ||
          Cur().text.find('.') != std::string::npos) {
        return Error("WITHIN expects an integer duration");
      }
      q.within = static_cast<Timestamp>(strtoll(Cur().text.c_str(), nullptr, 10));
      ++pos_;
      if (q.within <= 0) return Error("WITHIN duration must be positive");
    }

    if (AcceptKeyword("RETURN")) {
      EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      for (;;) {
        EXSTREAM_ASSIGN_OR_RETURN(ReturnItem item, ParseReturnItem());
        q.return_items.push_back(std::move(item));
        if (!Accept(TokenKind::kComma)) break;
      }
      EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      // Trailing "[]" after RETURN(...) in the paper's syntax is optional
      // decoration marking a streamed result; accept and ignore it.
      if (Accept(TokenKind::kLBracket)) {
        EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
      }
    }

    EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kEnd));

    // Semantic checks that need no schema: unique variables, single kleene.
    size_t kleene_count = 0;
    for (const auto& c : q.components) {
      if (c.kleene) ++kleene_count;
      size_t uses = 0;
      for (const auto& c2 : q.components) {
        if (c2.variable == c.variable) ++uses;
      }
      if (uses > 1) return Error("duplicate pattern variable '" + c.variable + "'");
    }
    if (kleene_count > 1) {
      return Error("at most one kleene component is supported");
    }
    if (q.components.front().negated || q.components.back().negated) {
      return Error("a negated component needs surrounding positive components");
    }
    return q;
  }

 private:
  // Past the end, keeps answering with the final kEnd token: the checks
  // after Expect(kEnd) still report an offset.
  const Token& Cur() const { return tokens_[std::min(pos_, tokens_.size() - 1)]; }

  bool Accept(TokenKind kind) {
    if (Cur().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status Expect(TokenKind kind) {
    if (!Accept(kind)) {
      return Status::ParseError(StrFormat("unexpected token '%s' at offset %zu",
                                          Cur().text.c_str(), Cur().offset));
    }
    return Status::OK();
  }

  bool AcceptKeyword(std::string_view kw) {
    if (Cur().kind == TokenKind::kIdent && EqualsIgnoreCase(Cur().text, kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(StrFormat("expected '%.*s', got '%s' at offset %zu",
                                          static_cast<int>(kw.size()), kw.data(),
                                          Cur().text.c_str(), Cur().offset));
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Cur().kind != TokenKind::kIdent) {
      return Status::ParseError(StrFormat("expected identifier at offset %zu, got '%s'",
                                          Cur().offset, Cur().text.c_str()));
    }
    std::string s = Cur().text;
    ++pos_;
    return s;
  }

  Status Error(std::string msg) const {
    return Status::ParseError(StrFormat("%s (at offset %zu)", msg.c_str(), Cur().offset));
  }

  Result<QueryComponent> ParseComponent() {
    QueryComponent comp;
    comp.negated = Accept(TokenKind::kBang);
    EXSTREAM_ASSIGN_OR_RETURN(comp.event_type, ExpectIdent());
    comp.kleene = Accept(TokenKind::kPlus);
    EXSTREAM_ASSIGN_OR_RETURN(comp.variable, ExpectIdent());
    if (Accept(TokenKind::kLBracket)) {
      EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
      comp.kleene = true;
    }
    if (comp.negated && comp.kleene) {
      return Error("a component cannot be both negated and kleene");
    }
    return comp;
  }

  Result<AttrRef> ParseAttrRef() {
    AttrRef ref;
    EXSTREAM_ASSIGN_OR_RETURN(ref.variable, ExpectIdent());
    if (Accept(TokenKind::kLBracket)) {
      if (Cur().kind == TokenKind::kNumber) {
        // b[1..i].attr
        ++pos_;
        EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kDotDot));
        EXSTREAM_ASSIGN_OR_RETURN(const std::string idx, ExpectIdent());
        if (!EqualsIgnoreCase(idx, "i")) return Error("expected 'i' in kleene range");
        ref.index = KleeneIndex::kRange;
      } else {
        EXSTREAM_ASSIGN_OR_RETURN(const std::string idx, ExpectIdent());
        if (!EqualsIgnoreCase(idx, "i")) return Error("expected 'i' kleene index");
        ref.index = KleeneIndex::kCurrent;
      }
      EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
    }
    EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kDot));
    EXSTREAM_ASSIGN_OR_RETURN(ref.attribute, ExpectIdent());
    return ref;
  }

  Result<CompareOp> ParseOp() {
    if (Cur().kind != TokenKind::kOp) {
      return Status::ParseError(
          StrFormat("expected comparison operator at offset %zu", Cur().offset));
    }
    const std::string op = Cur().text;
    ++pos_;
    if (op == ">") return CompareOp::kGt;
    if (op == ">=") return CompareOp::kGe;
    if (op == "=") return CompareOp::kEq;
    if (op == "<=") return CompareOp::kLe;
    if (op == "<") return CompareOp::kLt;
    if (op == "!=") return CompareOp::kNe;
    return Status::ParseError("unknown operator " + op);
  }

  Result<QueryPredicate> ParsePredicate() {
    QueryPredicate pred;
    EXSTREAM_ASSIGN_OR_RETURN(pred.lhs, ParseAttrRef());
    EXSTREAM_ASSIGN_OR_RETURN(pred.op, ParseOp());
    if (Cur().kind == TokenKind::kNumber) {
      const std::string& text = Cur().text;
      if (text.find('.') != std::string::npos) {
        pred.rhs_constant = Value(strtod(text.c_str(), nullptr));
      } else {
        pred.rhs_constant = Value(static_cast<int64_t>(strtoll(text.c_str(), nullptr, 10)));
      }
      ++pos_;
    } else if (Cur().kind == TokenKind::kString) {
      pred.rhs_constant = Value(Cur().text);
      ++pos_;
    } else {
      EXSTREAM_ASSIGN_OR_RETURN(AttrRef rhs, ParseAttrRef());
      pred.rhs_attr = std::move(rhs);
    }
    return pred;
  }

  Result<ReturnItem> ParseReturnItem() {
    ReturnItem item;
    // Lookahead: agg ident followed by '('.
    if (Cur().kind == TokenKind::kIdent && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].kind == TokenKind::kLParen) {
      const std::string fn = ToLower(Cur().text);
      ReturnAgg agg = ReturnAgg::kNone;
      if (fn == "sum") agg = ReturnAgg::kSum;
      if (fn == "count") agg = ReturnAgg::kCount;
      if (fn == "avg") agg = ReturnAgg::kAvg;
      if (fn == "min") agg = ReturnAgg::kMin;
      if (fn == "max") agg = ReturnAgg::kMax;
      if (agg != ReturnAgg::kNone) {
        pos_ += 2;  // consume ident and '('
        item.agg = agg;
        EXSTREAM_ASSIGN_OR_RETURN(item.ref, ParseAttrRef());
        EXSTREAM_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        return item;
      }
    }
    EXSTREAM_ASSIGN_OR_RETURN(item.ref, ParseAttrRef());
    return item;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text, std::string name) {
  EXSTREAM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.Parse(std::move(name));
}

}  // namespace exstream

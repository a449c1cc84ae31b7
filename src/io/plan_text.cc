#include "io/plan_text.h"

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/str_util.h"

namespace mrs {

namespace {

struct Token {
  enum Kind { kLParen, kRParen, kAtom } kind;
  std::string text;
};

Result<std::vector<Token>> Tokenize(const std::string& s, int line_no) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '(') {
      tokens.push_back({Token::kLParen, "("});
      ++i;
    } else if (c == ')') {
      tokens.push_back({Token::kRParen, ")"});
      ++i;
    } else if (c == '#') {
      break;
    } else {
      size_t j = i;
      while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j])) &&
             s[j] != '(' && s[j] != ')' && s[j] != '#') {
        ++j;
      }
      tokens.push_back({Token::kAtom, s.substr(i, j - i)});
      i = j;
    }
  }
  if (tokens.empty()) {
    return Status::InvalidArgument(
        StrFormat("line %d: empty expression", line_no));
  }
  return tokens;
}

/// Recursive-descent parse of (join OUTER INNER) | relation-name.
class SexprParser {
 public:
  SexprParser(const std::vector<Token>& tokens, int line_no, Catalog* catalog,
              PlanTree* plan)
      : tokens_(tokens), line_no_(line_no), catalog_(catalog), plan_(plan) {}

  Result<int> Parse() {
    auto node = ParseNode(0);
    if (!node.ok()) return node;
    if (pos_ != tokens_.size()) {
      return Status::InvalidArgument(
          StrFormat("line %d: trailing tokens after plan expression",
                    line_no_));
    }
    return node;
  }

 private:
  /// `depth` counts the enclosing operators; bounding it bounds every
  /// later recursive pass over the plan, so no input exhausts the stack.
  Result<int> ParseNode(int depth) {
    if (pos_ >= tokens_.size()) {
      return Status::InvalidArgument(
          StrFormat("line %d: unexpected end of plan expression", line_no_));
    }
    const Token& token = tokens_[pos_];
    if (token.kind == Token::kAtom) {
      ++pos_;
      auto rel = catalog_->GetRelationByName(token.text);
      if (!rel.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %d: unknown relation '%s'", line_no_,
                      token.text.c_str()));
      }
      // Dense catalog ids are insertion-ordered; find the id by name scan.
      for (int id = 0; id < catalog_->num_relations(); ++id) {
        if (catalog_->GetRelation(id)->name == token.text) {
          if (used_relations_.count(id) > 0) {
            return Status::InvalidArgument(
                StrFormat("line %d: relation '%s' scanned more than once",
                          line_no_, token.text.c_str()));
          }
          used_relations_.insert(id);
          return plan_->AddLeaf(id);
        }
      }
      return Status::Internal("relation lookup inconsistency");
    }
    if (token.kind != Token::kLParen) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected '(' or relation name, got '%s'",
                    line_no_, token.text.c_str()));
    }
    if (depth >= kMaxPlanDepth) {
      return Status::InvalidArgument(
          StrFormat("line %d: plan nests deeper than %d operators", line_no_,
                    kMaxPlanDepth));
    }
    ++pos_;  // consume '('
    if (pos_ >= tokens_.size() || tokens_[pos_].kind != Token::kAtom) {
      return Status::InvalidArgument(StrFormat(
          "line %d: expected 'join', 'sort', or 'agg' after '('", line_no_));
    }
    const std::string op = tokens_[pos_].text;
    ++pos_;
    Result<int> node = Status::Internal("unset");
    if (op == "join") {
      auto outer = ParseNode(depth + 1);
      if (!outer.ok()) return outer;
      auto inner = ParseNode(depth + 1);
      if (!inner.ok()) return inner;
      node = plan_->AddJoin(outer.value(), inner.value());
    } else if (op == "sort") {
      auto child = ParseNode(depth + 1);
      if (!child.ok()) return child;
      node = plan_->AddSort(child.value());
    } else if (op == "agg") {
      // (agg FRACTION CHILD)
      if (pos_ >= tokens_.size() || tokens_[pos_].kind != Token::kAtom) {
        return Status::InvalidArgument(StrFormat(
            "line %d: expected a group fraction after 'agg'", line_no_));
      }
      char* end = nullptr;
      const double fraction =
          std::strtod(tokens_[pos_].text.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument(
            StrFormat("line %d: bad group fraction '%s'", line_no_,
                      tokens_[pos_].text.c_str()));
      }
      ++pos_;
      auto child = ParseNode(depth + 1);
      if (!child.ok()) return child;
      node = plan_->AddAggregate(child.value(), fraction);
    } else {
      return Status::InvalidArgument(StrFormat(
          "line %d: unknown operator '%s' (expected join/sort/agg)",
          line_no_, op.c_str()));
    }
    if (!node.ok()) return node;
    if (pos_ >= tokens_.size() || tokens_[pos_].kind != Token::kRParen) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected ')' to close '%s'", line_no_,
                    op.c_str()));
    }
    ++pos_;  // consume ')'
    return node;
  }

  const std::vector<Token>& tokens_;
  int line_no_;
  Catalog* catalog_;
  PlanTree* plan_;
  size_t pos_ = 0;
  std::set<int> used_relations_;
};

/// Dense catalog id of a relation name; -1 when unknown.
int RelationIdByName(const Catalog& catalog, const std::string& name) {
  for (int id = 0; id < catalog.num_relations(); ++id) {
    if (catalog.GetRelation(id)->name == name) return id;
  }
  return -1;
}

/// Parses the `graph` stanza payload: a sequence of (name name) edge
/// pairs over the declared relations. Zero pairs is legal (the join-free
/// single-relation query).
Result<std::unique_ptr<QueryGraph>> ParseGraphEdges(
    const std::vector<Token>& tokens, int line_no, const Catalog& catalog) {
  auto graph = std::make_unique<QueryGraph>(catalog.num_relations());
  size_t pos = 0;
  while (pos < tokens.size()) {
    if (tokens[pos].kind != Token::kLParen) {
      return Status::InvalidArgument(StrFormat(
          "line %d: expected '(' to open a join edge, got '%s'", line_no,
          tokens[pos].text.c_str()));
    }
    ++pos;
    int ids[2];
    for (int side = 0; side < 2; ++side) {
      if (pos >= tokens.size() || tokens[pos].kind != Token::kAtom) {
        return Status::InvalidArgument(StrFormat(
            "line %d: expected two relation names inside a join edge",
            line_no));
      }
      ids[side] = RelationIdByName(catalog, tokens[pos].text);
      if (ids[side] < 0) {
        return Status::InvalidArgument(
            StrFormat("line %d: unknown relation '%s'", line_no,
                      tokens[pos].text.c_str()));
      }
      ++pos;
    }
    if (pos >= tokens.size() || tokens[pos].kind != Token::kRParen) {
      return Status::InvalidArgument(StrFormat(
          "line %d: expected ')' to close the join edge", line_no));
    }
    ++pos;
    Status added = graph->AddJoin(ids[0], ids[1]);
    if (!added.ok()) {
      return Status::InvalidArgument(
          StrFormat("line %d: %s", line_no, added.message().c_str()));
    }
  }
  return graph;
}

}  // namespace

Result<ParsedPlan> ParsePlanText(const std::string& text) {
  ParsedPlan parsed;
  parsed.catalog = std::make_unique<Catalog>();

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool saw_plan = false;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines early.
    std::string stripped = line;
    const size_t hash = stripped.find('#');
    if (hash != std::string::npos) stripped.resize(hash);
    size_t first = stripped.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;

    std::istringstream ls(stripped);
    std::string keyword;
    ls >> keyword;
    if (keyword == "relation") {
      if (saw_plan || parsed.graph != nullptr) {
        return Status::InvalidArgument(StrFormat(
            "line %d: relation declared after the plan line", line_no));
      }
      Relation r;
      long long tuples = -1;
      if (!(ls >> r.name >> tuples) || tuples < 0) {
        return Status::InvalidArgument(StrFormat(
            "line %d: expected 'relation <name> <tuples>'", line_no));
      }
      std::string extra;
      if (ls >> extra) {
        return Status::InvalidArgument(
            StrFormat("line %d: trailing text '%s'", line_no, extra.c_str()));
      }
      r.num_tuples = tuples;
      auto id = parsed.catalog->AddRelation(std::move(r));
      if (!id.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %d: %s", line_no, id.status().message().c_str()));
      }
    } else if (keyword == "plan") {
      if (saw_plan) {
        return Status::InvalidArgument(
            StrFormat("line %d: duplicate plan line", line_no));
      }
      if (parsed.graph != nullptr) {
        return Status::InvalidArgument(StrFormat(
            "line %d: plan line after a graph stanza (a file carries one "
            "or the other)",
            line_no));
      }
      saw_plan = true;
      std::string rest;
      std::getline(ls, rest);
      auto tokens = Tokenize(rest, line_no);
      if (!tokens.ok()) return tokens.status();
      parsed.plan = std::make_unique<PlanTree>(parsed.catalog.get());
      SexprParser parser(tokens.value(), line_no, parsed.catalog.get(),
                         parsed.plan.get());
      auto root = parser.Parse();
      if (!root.ok()) return root.status();
    } else if (keyword == "graph") {
      if (saw_plan) {
        return Status::InvalidArgument(StrFormat(
            "line %d: graph stanza after the plan line (a file carries "
            "one or the other)",
            line_no));
      }
      if (parsed.graph != nullptr) {
        return Status::InvalidArgument(
            StrFormat("line %d: duplicate graph stanza", line_no));
      }
      std::string rest;
      std::getline(ls, rest);
      std::vector<Token> tokens;
      if (rest.find_first_not_of(" \t\r") != std::string::npos) {
        auto tokenized = Tokenize(rest, line_no);
        if (!tokenized.ok()) return tokenized.status();
        tokens = std::move(tokenized).value();
      }
      auto graph = ParseGraphEdges(tokens, line_no, *parsed.catalog);
      if (!graph.ok()) return graph.status();
      parsed.graph = std::move(graph).value();
    } else {
      return Status::InvalidArgument(StrFormat(
          "line %d: unknown keyword '%s' (expected 'relation', 'plan', or "
          "'graph')",
          line_no, keyword.c_str()));
    }
  }
  if (parsed.graph != nullptr) return parsed;
  if (!saw_plan) {
    return Status::InvalidArgument("missing plan or graph line");
  }
  MRS_RETURN_IF_ERROR(parsed.plan->Finalize());
  return parsed;
}

namespace {

void WriteNode(const PlanTree& plan, int node_id, std::string* out) {
  const PlanNode& node = plan.node(node_id);
  switch (node.kind) {
    case PlanNodeKind::kLeaf:
      *out += plan.catalog().GetRelation(node.relation_id)->name;
      return;
    case PlanNodeKind::kJoin:
      *out += "(join ";
      WriteNode(plan, node.outer_child, out);
      *out += " ";
      WriteNode(plan, node.inner_child, out);
      *out += ")";
      return;
    case PlanNodeKind::kSort:
      *out += "(sort ";
      WriteNode(plan, node.unary_child, out);
      *out += ")";
      return;
    case PlanNodeKind::kAggregate:
      *out += StrFormat("(agg %.6g ", node.group_fraction);
      WriteNode(plan, node.unary_child, out);
      *out += ")";
      return;
  }
}

}  // namespace

Result<std::string> WritePlanText(const Catalog& catalog,
                                  const PlanTree& plan) {
  if (!plan.finalized()) {
    return Status::FailedPrecondition("plan must be finalized");
  }
  std::string out;
  for (const auto& r : catalog.relations()) {
    out += StrFormat("relation %s %lld\n", r.name.c_str(),
                     static_cast<long long>(r.num_tuples));
  }
  out += "plan ";
  WriteNode(plan, plan.root(), &out);
  out += "\n";
  return out;
}

Result<std::string> WriteGraphText(const Catalog& catalog,
                                   const QueryGraph& graph) {
  if (graph.num_relations() != catalog.num_relations()) {
    return Status::InvalidArgument(
        StrFormat("graph covers %d relations but the catalog has %d",
                  graph.num_relations(), catalog.num_relations()));
  }
  std::string out;
  for (const auto& r : catalog.relations()) {
    out += StrFormat("relation %s %lld\n", r.name.c_str(),
                     static_cast<long long>(r.num_tuples));
  }
  out += "graph";
  for (const JoinEdge& e : graph.edges()) {
    out += StrFormat(
        " (%s %s)",
        catalog.GetRelation(e.left_relation)->name.c_str(),
        catalog.GetRelation(e.right_relation)->name.c_str());
  }
  out += "\n";
  return out;
}

}  // namespace mrs

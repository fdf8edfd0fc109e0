#include "xpath/parser.h"

#include <cctype>
#include <string>

#include "common/strings.h"

namespace xee::xpath {
namespace {

enum class StepAxis {
  kChildDefault,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
};

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  Result<Query> Parse() {
    Status s = ParseLeadingSlash(&root_descendant_);
    if (!s.ok()) return s;
    query_.root_mode =
        root_descendant_ ? RootMode::kAnywhere : RootMode::kAbsolute;
    int last = -1;
    s = ParseChain(/*context=*/-1, root_descendant_ ? StructAxis::kDescendant
                                                    : StructAxis::kChild,
                   &last);
    if (!s.ok()) return s;
    if (!AtEnd()) return Error("trailing characters");
    query_.target = explicit_target_ >= 0 ? explicit_target_ : last;
    s = query_.Validate();
    if (!s.ok()) return s;
    return std::move(query_);
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return AtEnd() ? '\0' : in_[pos_]; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool ConsumeSeq(std::string_view seq) {
    if (in_.substr(pos_, seq.size()) != seq) return false;
    pos_ += seq.size();
    return true;
  }

  Status Error(const std::string& msg) const {
    return Status(StatusCode::kParseError,
                  StrFormat("xpath at offset %zu: %s", pos_, msg.c_str()));
  }

  Status ParseLeadingSlash(bool* descendant) {
    if (ConsumeSeq("//")) {
      *descendant = true;
      return Status::Ok();
    }
    if (Consume('/')) {
      *descendant = false;
      return Status::Ok();
    }
    return Error("query must start with '/' or '//'");
  }

  Status ParseName(std::string* out) {
    if (Consume('*')) {
      // Not `*out = "*"`: under -fsanitize=address,undefined, GCC 12
      // reports a false -Wrestrict on that assignment (GCC bug 105329).
      out->assign(1, '*');
      return Status::Ok();
    }
    // Element names follow the XML convention: '-', '.' and digits may
    // continue a name but never start one.
    const char first = Peek();
    if (!std::isalpha(static_cast<unsigned char>(first)) && first != '_') {
      if (std::isdigit(static_cast<unsigned char>(first)) || first == '-' ||
          first == '.') {
        return Error("element names cannot start with '-', '.' or a digit");
      }
      return Error("expected an element name");
    }
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.')) {
      ++pos_;
    }
    *out = std::string(in_.substr(start, pos_ - start));
    return Status::Ok();
  }

  /// Parses a chain of steps. `context` is the query node the first step
  /// hangs off (-1 when this is the outermost chain's first step);
  /// `first_axis` is the structural axis for the first step. On success
  /// `*last` is the final step's node index.
  Status ParseChain(int context, StructAxis first_axis, int* last) {
    StructAxis axis = first_axis;
    while (true) {
      Status s = ParseStep(&context, axis);
      if (!s.ok()) return s;
      if (ConsumeSeq("//")) {
        axis = StructAxis::kDescendant;
      } else if (Consume('/')) {
        axis = StructAxis::kChild;
      } else {
        *last = context;
        return Status::Ok();
      }
    }
  }

  Status ParseStep(int* context, StructAxis axis) {
    // Optional explicit axis.
    StepAxis step_axis = StepAxis::kChildDefault;
    if (ConsumeSeq("following-sibling::")) {
      step_axis = StepAxis::kFollowingSibling;
    } else if (ConsumeSeq("preceding-sibling::")) {
      step_axis = StepAxis::kPrecedingSibling;
    } else if (ConsumeSeq("following::")) {
      step_axis = StepAxis::kFollowing;
    } else if (ConsumeSeq("preceding::")) {
      step_axis = StepAxis::kPreceding;
    } else if (ConsumeSeq("descendant::")) {
      axis = StructAxis::kDescendant;
      // On the very first step 'descendant::' binds against the virtual
      // document root: '/descendant::a' selects every a, i.e. '//a'.
      if (*context < 0) query_.root_mode = RootMode::kAnywhere;
    } else if (ConsumeSeq("child::")) {
      axis = StructAxis::kChild;
    }
    if (*context < 0 && step_axis == StepAxis::kChildDefault) {
      // The first node's axis field is semantically dead (root_mode
      // carries the document binding), but it participates in the
      // serialized key; pin it to the root_mode default so '//child::a'
      // and '//a' produce identical queries.
      axis = query_.root_mode == RootMode::kAnywhere ? StructAxis::kDescendant
                                                     : StructAxis::kChild;
    }

    std::string name;
    Status s = ParseName(&name);
    if (!s.ok()) return s;

    int node = -1;
    if (step_axis == StepAxis::kChildDefault) {
      node = query_.AddNode(name, axis, *context);
    } else {
      // Order axis: the context step becomes one endpoint; the new node
      // attaches to the junction (the context's parent).
      if (*context < 0) {
        return Error("order axis requires a context step");
      }
      int junction = query_.nodes[*context].parent;
      if (junction < 0) {
        return Error("order axis requires the context step to have a "
                     "parent step (the junction)");
      }
      const bool sibling = step_axis == StepAxis::kFollowingSibling ||
                           step_axis == StepAxis::kPrecedingSibling;
      if (sibling &&
          query_.nodes[*context].axis != StructAxis::kChild) {
        return Error(
            "sibling order axis requires a child-attached context step");
      }
      node = query_.AddNode(
          name, sibling ? StructAxis::kChild : StructAxis::kDescendant,
          junction);
      const bool forward = step_axis == StepAxis::kFollowingSibling ||
                           step_axis == StepAxis::kFollowing;
      OrderConstraint c;
      c.kind = sibling ? OrderKind::kSibling : OrderKind::kDocument;
      c.before = forward ? *context : node;
      c.after = forward ? node : *context;
      query_.orders.push_back(c);
    }

    if (ConsumeSeq("{t}")) {
      if (explicit_target_ >= 0) return Error("multiple {t} markers");
      explicit_target_ = node;
    }

    // Predicates.
    while (Consume('[')) {
      // Value predicate [.="..."]. The literal supports backslash
      // escapes for '"' and the backslash itself; a bare '"' always
      // terminates it, so an embedded quote that is not escaped fails at
      // the ']' check below instead of resynchronizing on a later quote.
      if (ConsumeSeq(".=\"")) {
        std::string value;
        while (!AtEnd() && Peek() != '"') {
          char ch = Peek();
          if (ch == '\\') {
            ++pos_;
            if (AtEnd()) return Error("unterminated value predicate");
            const char esc = Peek();
            if (esc != '"' && esc != '\\') {
              return Error(
                  "unsupported escape in value predicate (use \\\" or \\\\)");
            }
            ch = esc;
          }
          value += ch;
          ++pos_;
        }
        if (!Consume('"')) return Error("unterminated value predicate");
        if (!Consume(']')) {
          return Error("expected ']' after value predicate");
        }
        if (query_.nodes[node].value_filter.has_value()) {
          return Error("multiple value predicates on one step");
        }
        query_.nodes[node].value_filter = std::move(value);
        continue;
      }
      StructAxis pred_axis = StructAxis::kChild;
      if (ConsumeSeq("//")) {
        pred_axis = StructAxis::kDescendant;
      } else {
        Consume('/');  // optional leading '/'
      }
      int pred_last = -1;
      s = ParseChain(node, pred_axis, &pred_last);
      if (!s.ok()) return s;
      if (!Consume(']')) return Error("expected ']'");
    }

    *context = node;
    return Status::Ok();
  }

  std::string_view in_;
  size_t pos_ = 0;
  bool root_descendant_ = false;
  int explicit_target_ = -1;
  Query query_;
};

}  // namespace

Result<Query> ParseXPath(std::string_view input) {
  return Parser(input).Parse();
}

}  // namespace xee::xpath

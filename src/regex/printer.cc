#include "regex/printer.h"

#include <utility>

#include "base/logging.h"

namespace rpqi {

namespace {

// Precedence levels: union (lowest), concat, star/atom (highest).
enum Precedence { kUnionPrec = 0, kConcatPrec = 1, kAtomPrec = 2 };

/// Nodes rendered between two budget checks. A DAG-shared regex can print as
/// an exponentially long string, so the walk itself must stop at the
/// deadline.
constexpr int kNodesPerBudgetCheck = 4096;

class Renderer {
 public:
  explicit Renderer(Budget* budget) : budget_(budget) {}

  /// Appends `e` to out(); stops early once status() is not ok.
  void Render(const RegexPtr& e, int parent_prec) {
    if (!Tick()) return;
    switch (e->kind) {
      case RegexKind::kEmptySet:
        out_ += "%empty";
        return;
      case RegexKind::kEpsilon:
        out_ += "%eps";
        return;
      case RegexKind::kAtom:
        out_ += e->atom_name;
        if (e->atom_inverse) out_ += "^-";
        return;
      case RegexKind::kStar: {
        // The star operand always needs grouping unless it is a bare atom.
        if (e->left->kind == RegexKind::kAtom && !e->left->atom_inverse) {
          Render(e->left, kAtomPrec);
        } else {
          out_ += "(";
          Render(e->left, kUnionPrec);
          out_ += ")";
        }
        out_ += "*";
        return;
      }
      case RegexKind::kConcat: {
        bool parens = parent_prec > kConcatPrec;
        if (parens) out_ += "(";
        Render(e->left, kConcatPrec);
        out_ += " ";
        Render(e->right, kConcatPrec);
        if (parens) out_ += ")";
        return;
      }
      case RegexKind::kUnion: {
        bool parens = parent_prec > kUnionPrec;
        if (parens) out_ += "(";
        Render(e->left, kUnionPrec);
        out_ += " | ";
        Render(e->right, kUnionPrec);
        if (parens) out_ += ")";
        return;
      }
    }
    RPQI_CHECK(false) << "unreachable";
  }

  std::string& out() { return out_; }
  const Status& status() const { return status_; }

 private:
  /// Counts one rendered node; false once the budget has run out.
  bool Tick() {
    if (budget_ == nullptr) return true;
    if (!status_.ok()) return false;
    if (++nodes_ == kNodesPerBudgetCheck) {
      nodes_ = 0;
      status_ = budget_->Check();
    }
    return status_.ok();
  }

  Budget* budget_;
  int nodes_ = 0;
  Status status_;
  std::string out_;
};

}  // namespace

std::string RegexToString(const RegexPtr& e) {
  RPQI_CHECK(e != nullptr);
  Renderer renderer(/*budget=*/nullptr);
  renderer.Render(e, kUnionPrec);
  return std::move(renderer.out());
}

StatusOr<std::string> RegexToString(const RegexPtr& e, Budget* budget) {
  RPQI_CHECK(e != nullptr);
  Renderer renderer(budget);
  renderer.Render(e, kUnionPrec);
  if (!renderer.status().ok()) return renderer.status();
  return std::move(renderer.out());
}

}  // namespace rpqi

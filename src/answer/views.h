#ifndef RPQI_ANSWER_VIEWS_H_
#define RPQI_ANSWER_VIEWS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "base/status.h"

namespace rpqi {

/// Section 5 view assumptions: how ext(V) relates to ans(def(V), B) on a
/// consistent database B.
enum class ViewAssumption {
  kSound,     // ext(V) ⊆ ans(def(V), B)   (SVA)
  kComplete,  // ext(V) ⊇ ans(def(V), B)   (CVA)
  kExact,     // ext(V) = ans(def(V), B)   (EVA)
};

/// One view: its RPQI definition over Σ±, its extension over object ids, and
/// the assumption under which the extension is interpreted.
struct View {
  Nfa definition{0};
  std::vector<std::pair<int, int>> extension;
  ViewAssumption assumption = ViewAssumption::kSound;
};

/// A view-based query-answering instance (Definition 10). Objects are dense
/// ids [0, num_objects); D_V is the set of objects mentioned in extensions
/// and, by convention here, every id below num_objects. The query and all
/// definitions share the signed alphabet Σ±.
struct AnsweringInstance {
  std::vector<View> views;
  Nfa query{0};
  int num_objects = 0;
};

/// Most (c, d) pairs a request may probe when it names none: without
/// explicit pairs, both front ends (the serve `answer` op and `rpqi answer`)
/// probe all N² pairs, so they refuse instances with more than 1024 objects
/// instead of enumerating up to 2^40 probes.
inline constexpr int64_t kMaxAllPairsProbes = int64_t{1} << 20;

/// Number of Σ± symbols of the instance (from the query automaton).
inline int SigmaSymbols(const AnsweringInstance& instance) {
  return instance.query.num_symbols();
}

/// Validates id ranges and alphabet agreement (via analysis/validate.h);
/// returns a precise diagnostic naming the offending view / pair.
Status ValidateInstance(const AnsweringInstance& instance);

/// ValidateInstance for internal callers: aborts on malformed input.
void CheckInstance(const AnsweringInstance& instance);

/// Rewrites complete views into exact views (the reduction noted in Section 5
/// after the assumption definitions, following [11]): a complete view V with
/// definition E becomes an exact view with definition E ∪ f for a fresh
/// relation f. Any database may realize missing pairs of ext(V) via f-edges,
/// so consistency and certain answers are preserved, and downstream code only
/// handles sound and exact views. The returned instance may use a wider Σ±
/// (fresh relations appended); sound and exact views pass through unchanged
/// (widened).
AnsweringInstance NormalizeCompleteViews(const AnsweringInstance& instance);

}  // namespace rpqi

#endif  // RPQI_ANSWER_VIEWS_H_

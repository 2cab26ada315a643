#include "answer/linearize.h"

#include <utility>

#include "automata/ops.h"
#include "rpq/alphabet.h"

namespace rpqi {

Nfa BuildStructureAutomaton(const LinearAlphabet& alphabet) {
  Nfa nfa(alphabet.TotalSymbols());
  int start = nfa.AddState();
  int sep = nfa.AddState();  // after a $; accepting (word may end here)
  int mid = nfa.AddState();  // inside a nonempty payload
  int closed = nfa.AddState();  // after the closing constant
  nfa.SetInitial(start);
  nfa.SetAccepting(sep);
  nfa.AddTransition(start, alphabet.DollarSymbol(), sep);
  nfa.AddTransition(closed, alphabet.DollarSymbol(), sep);

  // One state per object for "block opened with d": an immediately following
  // constant must be d itself (empty payloads may not identify two objects).
  // lint: allow-unbudgeted linear in the instance's object count
  for (int object = 0; object < alphabet.num_objects; ++object) {
    int opened = nfa.AddState();
    int d = alphabet.ObjectSymbol(object);
    nfa.AddTransition(sep, d, opened);
    nfa.AddTransition(opened, d, closed);  // mention block $d d$
    for (int symbol = 0; symbol < alphabet.sigma_symbols; ++symbol) {
      nfa.AddTransition(opened, symbol, mid);
    }
  }
  for (int symbol = 0; symbol < alphabet.sigma_symbols; ++symbol) {
    nfa.AddTransition(mid, symbol, mid);
  }
  for (int object = 0; object < alphabet.num_objects; ++object) {
    nfa.AddTransition(mid, alphabet.ObjectSymbol(object), closed);
  }
  return nfa;
}

Nfa BuildOccurrenceAutomaton(const LinearAlphabet& alphabet, int object) {
  Nfa nfa(alphabet.TotalSymbols());
  int searching = nfa.AddState();
  int found = nfa.AddState();
  nfa.SetInitial(searching);
  nfa.SetAccepting(found);
  for (int symbol = 0; symbol < alphabet.TotalSymbols(); ++symbol) {
    nfa.AddTransition(searching, symbol, searching);
    nfa.AddTransition(found, symbol, found);
  }
  nfa.AddTransition(searching, alphabet.ObjectSymbol(object), found);
  return nfa;
}

TwoWayNfa BuildLinearizedEvalAutomaton(const Nfa& definition_input,
                                       const LinearAlphabet& alphabet,
                                       const LinearEvalSpec& spec) {
  const Nfa definition = RemoveEpsilon(definition_input);
  RPQI_CHECK_EQ(definition.num_symbols(), alphabet.sigma_symbols);
  const int n = definition.NumStates();
  const int total = alphabet.TotalSymbols();

  TwoWayNfa automaton(total);
  // State layout:
  //   [0, n)                      forward query states
  //   [n, 2n)                     backward-mode query states
  //   [2n, 2n + n·objects)        search states ⟨s, d⟩
  //   scan_start                  initial head-positioning sweep
  //   scan_pre_anon               helper: previous cell was a Σ symbol
  //   anon_end_check              helper: peek left to confirm anonymous end
  //   final_state                 sweeps right and accepts past the end
  // lint: allow-unbudgeted state count fixed by the layout above
  for (int s = 0; s < 2 * n + n * alphabet.num_objects; ++s) {
    automaton.AddState();
  }
  const int scan_start = automaton.AddState();
  const int scan_pre_anon = automaton.AddState();
  const int anon_end_check = automaton.AddState();
  const int final_state = automaton.AddState();

  auto backward = [n](int s) { return n + s; };
  auto search = [n, &alphabet](int s, int object) {
    return 2 * n + s * alphabet.num_objects + object;
  };

  automaton.SetInitial(scan_start);
  automaton.SetAccepting(final_state);

  // --- Item 1: turn around into backward mode, from any cell.
  for (int s = 0; s < n; ++s) {
    for (int symbol = 0; symbol < total; ++symbol) {
      automaton.AddTransition(s, symbol, backward(s), Move::kLeft);
    }
  }

  // --- Item 2: query transitions, forward and backward.
  for (int s1 = 0; s1 < n; ++s1) {
    for (const Nfa::Transition& t : definition.TransitionsFrom(s1)) {
      automaton.AddTransition(s1, t.symbol, t.to, Move::kRight);
      automaton.AddTransition(backward(s1),
                              SignedAlphabet::InverseSymbol(t.symbol), t.to,
                              Move::kStay);
    }
  }

  // --- Item 3: head positioning. scan_start sweeps right over the word and
  // nondeterministically anchors the evaluation at a start node.
  for (int symbol = 0; symbol < total; ++symbol) {
    automaton.AddTransition(scan_start, symbol, scan_start, Move::kRight);
  }
  if (spec.start == LinearEvalSpec::Start::kAtConstant) {
    RPQI_CHECK(0 <= spec.start_constant &&
               spec.start_constant < alphabet.num_objects);
    int anchor = alphabet.ObjectSymbol(spec.start_constant);
    for (int s : definition.InitialStates()) {
      automaton.AddTransition(scan_start, anchor, s, Move::kStay);
    }
  } else {
    RPQI_CHECK_EQ(static_cast<int>(spec.excluded_starts.size()),
                  alphabet.num_objects);
    // Non-excluded constants.
    for (int object = 0; object < alphabet.num_objects; ++object) {
      if (spec.excluded_starts[object]) continue;
      for (int s : definition.InitialStates()) {
        automaton.AddTransition(scan_start, alphabet.ObjectSymbol(object), s,
                                Move::kStay);
      }
    }
    // Anonymous nodes: a cell holding a Σ symbol whose left neighbour is also
    // a Σ symbol is the "head on the edge leaving an anonymous node" position.
    for (int symbol = 0; symbol < alphabet.sigma_symbols; ++symbol) {
      automaton.AddTransition(scan_start, symbol, scan_pre_anon, Move::kRight);
    }
    for (int symbol = 0; symbol < alphabet.sigma_symbols; ++symbol) {
      for (int s : definition.InitialStates()) {
        automaton.AddTransition(scan_pre_anon, symbol, s, Move::kStay);
      }
    }
  }

  // --- Item 4: search mode — jump between occurrences of the same constant.
  // Without search mode only the same-occurrence normalizations remain: step
  // right past the constant to read the block it opens, and fold backward
  // mode into forward mode when the head sits on a constant.
  if (spec.use_search_mode) {
    for (int s = 0; s < n; ++s) {
      for (int object = 0; object < alphabet.num_objects; ++object) {
        int d = alphabet.ObjectSymbol(object);
        int sd = search(s, object);
        automaton.AddTransition(s, d, sd, Move::kStay);
        automaton.AddTransition(backward(s), d, sd, Move::kStay);
        for (int symbol = 0; symbol < total; ++symbol) {
          automaton.AddTransition(sd, symbol, sd, Move::kRight);
          automaton.AddTransition(sd, symbol, sd, Move::kLeft);
        }
        // Exit at any occurrence of d: stay put (to finish at d) or step
        // right (to read the first edge of the block that d opens).
        automaton.AddTransition(sd, d, s, Move::kStay);
        automaton.AddTransition(sd, d, s, Move::kRight);
      }
    }
  } else {
    for (int s = 0; s < n; ++s) {
      for (int object = 0; object < alphabet.num_objects; ++object) {
        int d = alphabet.ObjectSymbol(object);
        automaton.AddTransition(s, d, s, Move::kRight);
        automaton.AddTransition(backward(s), d, s, Move::kStay);
      }
    }
  }

  // --- Item 5: acceptance.
  auto accept_from = [&](int s, int symbol, Move move) {
    automaton.AddTransition(s, symbol, final_state, move);
  };
  for (int s = 0; s < n; ++s) {
    if (!definition.IsAccepting(s)) continue;
    switch (spec.end) {
      case LinearEvalSpec::End::kAtConstant: {
        RPQI_CHECK(0 <= spec.end_constant &&
                   spec.end_constant < alphabet.num_objects);
        accept_from(s, alphabet.ObjectSymbol(spec.end_constant), Move::kStay);
        break;
      }
      case LinearEvalSpec::End::kNotInAllowed: {
        RPQI_CHECK_EQ(static_cast<int>(spec.allowed_ends.size()),
                      alphabet.num_objects);
        for (int object = 0; object < alphabet.num_objects; ++object) {
          if (!spec.allowed_ends[object]) {
            accept_from(s, alphabet.ObjectSymbol(object), Move::kStay);
          }
        }
        // Anonymous end: the head sits on a Σ symbol whose left neighbour is
        // also a Σ symbol; peek left to confirm, then accept.
        for (int symbol = 0; symbol < alphabet.sigma_symbols; ++symbol) {
          automaton.AddTransition(s, symbol, anon_end_check, Move::kLeft);
        }
        break;
      }
      case LinearEvalSpec::End::kAnywhere: {
        for (int symbol = 0; symbol < total; ++symbol) {
          if (symbol == alphabet.DollarSymbol()) continue;
          accept_from(s, symbol, Move::kStay);
        }
        break;
      }
    }
  }
  for (int symbol = 0; symbol < alphabet.sigma_symbols; ++symbol) {
    automaton.AddTransition(anon_end_check, symbol, final_state, Move::kRight);
  }
  // The final state sweeps right and accepts past the end of the word.
  for (int symbol = 0; symbol < total; ++symbol) {
    automaton.AddTransition(final_state, symbol, final_state, Move::kRight);
  }

  return automaton;
}

StatusOr<GraphDb> WordToCanonicalDb(const std::vector<int>& word,
                                    const LinearAlphabet& alphabet) {
  GraphBuilder db;
  for (int object = 0; object < alphabet.num_objects; ++object) {
    db.AddNode("obj" + std::to_string(object));
  }
  size_t pos = 0;
  auto fail = [&](const std::string& message) {
    return Status::InvalidArgument("malformed canonical word at position " +
                                   std::to_string(pos) + ": " + message);
  };
  if (pos >= word.size() || word[pos] != alphabet.DollarSymbol()) {
    return fail("expected leading $");
  }
  ++pos;
  while (pos < word.size()) {
    if (!alphabet.IsObjectSymbol(word[pos])) return fail("expected constant");
    int from = alphabet.ObjectOf(word[pos]);
    ++pos;
    std::vector<int> labels;
    while (pos < word.size() && alphabet.IsSigmaSymbol(word[pos])) {
      labels.push_back(word[pos]);
      ++pos;
    }
    if (pos >= word.size() || !alphabet.IsObjectSymbol(word[pos])) {
      return fail("expected closing constant");
    }
    int to = alphabet.ObjectOf(word[pos]);
    ++pos;
    if (pos >= word.size() || word[pos] != alphabet.DollarSymbol()) {
      return fail("expected $ after block");
    }
    ++pos;
    if (labels.empty()) {
      if (from != to) return fail("empty block with distinct constants");
      continue;  // mention block, no edges
    }
    int previous = from;
    for (size_t i = 0; i < labels.size(); ++i) {
      int next = (i + 1 == labels.size()) ? to : db.AddAnonymousNode();
      int relation = SignedAlphabet::RelationOfSymbol(labels[i]);
      if (SignedAlphabet::IsInverseSymbol(labels[i])) {
        db.AddEdge(next, relation, previous);
      } else {
        db.AddEdge(previous, relation, next);
      }
      previous = next;
    }
  }
  return std::move(db).Build();
}

std::vector<int> CanonicalDbToWord(const std::vector<CanonicalBlock>& blocks,
                                   const LinearAlphabet& alphabet) {
  std::vector<int> word;
  word.push_back(alphabet.DollarSymbol());
  for (const CanonicalBlock& block : blocks) {
    word.push_back(alphabet.ObjectSymbol(block.from));
    for (int label : block.labels) {
      RPQI_CHECK(alphabet.IsSigmaSymbol(label));
      word.push_back(label);
    }
    word.push_back(alphabet.ObjectSymbol(block.to));
    word.push_back(alphabet.DollarSymbol());
  }
  return word;
}

GraphDb BlocksToDb(const std::vector<CanonicalBlock>& blocks,
                   const LinearAlphabet& alphabet) {
  StatusOr<GraphDb> db =
      WordToCanonicalDb(CanonicalDbToWord(blocks, alphabet), alphabet);
  RPQI_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

}  // namespace rpqi

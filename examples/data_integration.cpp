// Data integration with sound sources (Section 5): the mediated database is
// hidden; all we have are view extensions delivered by autonomous sources,
// each known to be sound (it returns SOME of the answers to its definition,
// not necessarily all). Certain answers are the pairs that hold in EVERY
// database consistent with the sources — computed here under both the closed
// and the open domain assumption, showing where they differ.
//
// Run: ./data_integration

#include <cstdio>

#include "answer/cda.h"
#include "answer/oda.h"
#include "answer/views.h"
#include "regex/parser.h"
#include "rpq/alphabet.h"
#include "rpq/compile.h"

int main() {
  using namespace rpqi;

  // Mediated schema: flight(x,y) — a direct flight from x to y.
  // Objects: 0 = ROM, 1 = FRA, 2 = HOU.
  SignedAlphabet alphabet;
  alphabet.AddRelation("flight");
  const char* names[] = {"ROM", "FRA", "HOU"};

  AnsweringInstance instance;
  instance.num_objects = 3;
  // Source 1 ("EU routes"): knows some one-stop connections from Rome.
  //   def = flight flight, ext = {(ROM, HOU)} — sound: the connection exists,
  //   but the stopover airport is unknown (it may not even be in our object
  //   set: an open-domain phenomenon).
  {
    View source;
    source.definition =
        MustCompileRegex(MustParseRegex("flight flight"), alphabet);
    source.extension = {{0, 2}};
    source.assumption = ViewAssumption::kSound;
    instance.views.push_back(std::move(source));
  }
  // Source 2 ("direct routes"): sound list of direct flights.
  {
    View source;
    source.definition = MustCompileRegex(MustParseRegex("flight"), alphabet);
    source.extension = {{1, 2}};
    source.assumption = ViewAssumption::kSound;
    instance.views.push_back(std::move(source));
  }

  // CDA sweep: all pairs, all queries (the closed-domain solver is cheap).
  auto report_cda = [&](const char* query_text) {
    instance.query = MustCompileRegex(MustParseRegex(query_text), alphabet);
    std::printf("query %-36s | certain pairs under CDA:", query_text);
    for (int c = 0; c < 3; ++c) {
      for (int d = 0; d < 3; ++d) {
        StatusOr<CdaResult> cda = CertainAnswerCda(instance, c, d);
        if (cda.ok() && cda->certain) {
          std::printf(" (%s,%s)", names[c], names[d]);
        }
      }
    }
    std::printf("\n");
  };
  report_cda("flight flight");
  report_cda("flight (flight | %eps) (flight | %eps)");
  report_cda("flight");
  report_cda("flight flight flight^- flight^-");
  report_cda("flight^-");

  // ODA spot checks on the interesting pairs: the open-domain procedure pays
  // for the automata pipeline, so we probe rather than sweep.
  auto report_oda = [&](const char* query_text, int c, int d) {
    instance.query = MustCompileRegex(MustParseRegex(query_text), alphabet);
    StatusOr<OdaResult> oda = CertainAnswerOda(instance, c, d);
    std::printf("ODA certain %-22s (%s,%s): %s\n", query_text, names[c],
                names[d],
                oda.ok() ? (oda->certain ? "yes" : "no") : "error");
  };
  std::printf("\n");
  // The one-stop connection is certain even with an anonymous stopover.
  report_oda("flight flight", 0, 2);
  // A direct flight is NOT certain under ODA (it was not under CDA either,
  // but here even 'some edge out of ROM into the named domain' fails).
  report_oda("flight", 0, 2);
  // Walking the promised connection forward and back is certain.
  report_oda("flight flight^-", 1, 1);

  // Show an explicit ODA counterexample for the non-certain direct flight.
  instance.query = MustCompileRegex(MustParseRegex("flight"), alphabet);
  StatusOr<OdaResult> oda = CertainAnswerOda(instance, 0, 2);
  if (oda.ok() && !oda->certain && oda->counterexample.has_value()) {
    const GraphDb& db = *oda->counterexample;
    std::printf("\nODA counterexample for certain(flight)(ROM,HOU): %d nodes\n",
                db.NumNodes());
    const int flight = alphabet.RelationId("flight");
    for (int u = 0; u < db.NumNodes(); ++u) {
      for (uint32_t v : db.OutTargets(u, flight)) {
        std::string from(db.NodeName(u)), to(db.NodeName(static_cast<int>(v)));
        std::printf("  %s --flight--> %s\n", from.c_str(), to.c_str());
      }
    }
    std::printf(
        "(no direct ROM->HOU edge needed: the connection may route through\n"
        " another airport — named here, or anonymous under open-domain "
        "semantics)\n");
  }
  return 0;
}

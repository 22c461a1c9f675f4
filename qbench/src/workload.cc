#include "workload.h"

#include <algorithm>
#include <string>

#include "core/hash.h"
#include "workload/paper_example.h"

namespace qbench {

namespace {

using tqp::Catalog;
using tqp::CatalogEntry;
using tqp::Relation;
using tqp::Rng;

/// update_mix statements come in cycles of one write and this many reads:
/// 5% writes.
constexpr size_t kReadsPerWrite = 19;
/// Versions per written relation on update_mix (index 0 = initial).
constexpr size_t kVersions = 4;

uint64_t StreamSeed(const std::string& workload, uint64_t seed,
                    uint64_t salt) {
  return tqp::HashCombine(tqp::HashCombine(tqp::HashString(workload), seed),
                          salt);
}

/// A messy temporal relation (Name, Cat, Val, T1, T2) of about `n` base
/// tuples with the given duplicate / adjacency / overlap fractions.
Relation Messy(size_t n, double dup, double adj, double over, uint64_t seed) {
  tqp::RelationGenParams p;
  p.cardinality = n;
  p.num_names = std::max<size_t>(4, n / 16);
  p.duplicate_fraction = dup;
  p.adjacency_fraction = adj;
  p.overlap_fraction = over;
  p.time_horizon = static_cast<tqp::TimePoint>(8 * n);
  p.max_period_length = 40;
  p.seed = seed;
  return tqp::GenerateRelation(p);
}

void Register(Catalog* catalog, const std::string& name, Relation data) {
  TQP_CHECK(catalog->RegisterWithInferredFlags(name, std::move(data)).ok());
}

/// EMPLOYEE/PROJECT with `persons` employees, plus R and S. The initial
/// catalogs do not depend on the run seed: the inferred property flags gate
/// the optimizer's rules, so seeded base data would change the plan space,
/// and with it the work, from seed to seed. The seed drives the statement
/// streams and update_mix's written versions.
Catalog PaperShapedCatalog(size_t persons, Relation r, Relation s) {
  Catalog catalog;
  Register(&catalog, "EMPLOYEE", tqp::ScaledEmployee(persons));
  Register(&catalog, "PROJECT", tqp::ScaledProject(persons));
  Register(&catalog, "R", std::move(r));
  Register(&catalog, "S", std::move(s));
  return catalog;
}

std::string Num(uint64_t v) { return std::to_string(v); }

/// Number of adhoc_small statement templates.
constexpr uint64_t kAdhocTemplates = 8;

/// adhoc_small: one statement of template `tmpl`, literals drawn from `rng`.
/// Two literal slots per template keep repeats rare, so nearly every
/// statement is a plan-cache miss.
std::string AdhocText(Rng& rng, uint64_t tmpl) {
  const std::string v = Num(rng.Below(1000));
  const std::string c = Num(rng.Below(8));
  switch (tmpl) {
    case 0:
      return "VALIDTIME SELECT DISTINCT Name FROM R WHERE Val > " + v +
             " AND Cat <> " + c + " ORDER BY Name ASC";
    case 1:
      return "VALIDTIME COALESCED SELECT DISTINCT Name, Cat FROM R WHERE "
             "Val < " + v + " AND Cat <> " + c;
    case 2:
      return "SELECT Name FROM R WHERE Val < " + v +
             " UNION SELECT Name FROM S WHERE Cat <> " + c;
    case 3:
      return "SELECT Cat, COUNT(*) AS n FROM S WHERE Val > " + v +
             " AND Cat <> " + c + " GROUP BY Cat ORDER BY Cat";
    case 4:
      return "VALIDTIME SELECT Name FROM R WHERE Val > " + v +
             " EXCEPT SELECT Name FROM S WHERE Cat <> " + c;
    case 5:
      return "VALIDTIME SELECT Cat, COUNT(*) AS n FROM R WHERE Val >= " + v +
             " AND Cat <> " + c + " GROUP BY Cat";
    case 6:
      return "VALIDTIME COALESCED SELECT DISTINCT EmpName FROM EMPLOYEE "
             "WHERE Dept <> 'dept" + Num(rng.Below(3)) +
             "' EXCEPT SELECT EmpName FROM PROJECT WHERE Prj <> 'prj" + v +
             "' ORDER BY EmpName ASC";
    default:
      return "VALIDTIME SELECT Dept, Prj FROM EMPLOYEE, PROJECT WHERE "
             "Dept = 'dept" + Num(rng.Below(3)) + "' AND Prj <> 'prj" + v +
             "'";
  }
}

/// analytic_large: each statement's plan exercises one order- or
/// duplicate-sensitive operation on large inputs.
const std::vector<std::string>& AnalyticTexts() {
  static const std::vector<std::string> texts = {
      tqp::PaperQueryText(),  // rdupT, differenceT, coalT, sort
      "VALIDTIME COALESCED SELECT Name, Cat FROM R WHERE Val < 500",
      "VALIDTIME SELECT DISTINCT Name FROM S ORDER BY Name ASC",
      "VALIDTIME SELECT Name FROM R WHERE Cat < 4 EXCEPT SELECT Name FROM S",
      "VALIDTIME SELECT Cat, COUNT(*) AS n FROM S GROUP BY Cat",
      "SELECT Name, COUNT(*) AS n, SUM(Val) AS total FROM R GROUP BY Name "
      "ORDER BY Name",
      "SELECT DISTINCT Name, Cat FROM R ORDER BY Name ASC, Cat ASC",
  };
  return texts;
}

/// update_mix: reads over every relation; the paper query and the PROJECT
/// read never see a write, the rest depend on R, S or both.
const std::vector<std::string>& UpdateReadTexts() {
  static const std::vector<std::string> texts = {
      tqp::PaperQueryText(),
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
      "SELECT Name FROM R UNION SELECT Name FROM S",
      "SELECT Cat, COUNT(*) AS n FROM S GROUP BY Cat ORDER BY Cat",
      "VALIDTIME SELECT Name FROM S EXCEPT SELECT Name FROM R",
      "SELECT DISTINCT Name, Cat FROM R WHERE Val > 500 ORDER BY Name ASC",
      "SELECT EmpName, Prj FROM PROJECT WHERE Prj <> 'prj1' "
      "ORDER BY EmpName ASC",
  };
  return texts;
}

Workload AdhocSmall(uint64_t seed) {
  Workload w;
  w.clients = 4;
  w.catalog = PaperShapedCatalog(4, Messy(64, 0.2, 0.2, 0.2, 5),
                                 Messy(48, 0.1, 0.3, 0.1, 17));
  // One statement per template, from a stream no client draws.
  Rng rng(StreamSeed("adhoc_small/warmup", seed, 0));
  for (uint64_t t = 0; t < kAdhocTemplates; ++t) {
    w.warmup.push_back(AdhocText(rng, t));
  }
  return w;
}

Workload AnalyticLarge() {
  Workload w;
  w.clients = 2;
  w.options.executor = tqp::ExecutorKind::kVectorized;
  w.options.vexec_threads = 2;
  w.catalog = PaperShapedCatalog(1200, Messy(10000, 0.2, 0.2, 0.2, 5),
                                 Messy(6000, 0.1, 0.3, 0.1, 17));
  w.warmup = AnalyticTexts();
  return w;
}

Workload UpdateMix(uint64_t seed) {
  Workload w;
  w.clients = 3;
  w.options.incremental_execution = true;
  w.options.backend = tqp::BackendKind::kSqlite;
  auto r = [](uint64_t v) { return Messy(800, 0.2, 0.2, 0.2, v); };
  auto s = [](uint64_t v) { return Messy(600, 0.1, 0.3, 0.1, v); };
  w.catalog = PaperShapedCatalog(50, r(5), s(17));
  for (const char* rel : {"R", "S"}) {
    std::vector<CatalogEntry>& versions = w.versions[rel];
    versions.push_back(*w.catalog.Find(rel));
    for (size_t k = 1; k < kVersions; ++k) {
      const uint64_t vseed = StreamSeed(rel, seed, k);
      versions.push_back(
          InferredEntry(std::string(rel) == "R" ? r(vseed) : s(vseed)));
    }
  }
  w.warmup = UpdateReadTexts();
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"adhoc_small",
                                                 "analytic_large",
                                                 "update_mix"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  TQP_CHECK(name == "adhoc_small" || name == "analytic_large" ||
            name == "update_mix");
  Workload w = name == "adhoc_small"      ? AdhocSmall(seed)
               : name == "analytic_large" ? AnalyticLarge()
                                          : UpdateMix(seed);
  w.name = name;
  w.seed = seed;
  return w;
}

Deck::Deck(std::vector<size_t> cards) : cards_(std::move(cards)) {}

size_t Deck::Draw(Rng& rng) {
  if (next_ == 0) {  // a new cycle: shuffle (Fisher-Yates)
    for (size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng.Below(i)]);
    }
  }
  const size_t card = cards_[next_];
  next_ = (next_ + 1) % cards_.size();
  return card;
}

namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// The deck a stream draws its templates or read texts from.
std::vector<size_t> TextCards(const std::string& workload) {
  if (workload == "analytic_large") return Iota(AnalyticTexts().size());
  if (workload != "adhoc_small") return Iota(UpdateReadTexts().size());
  // Every template twice, except the capped join search (the last one):
  // each join adds about 10 MiB to the Engine's never-freed session caches,
  // and at one in eight statements their growth and rehash stalls make
  // the throughput swing from run to run.
  std::vector<size_t> cards;
  for (size_t t = 0; t + 1 < kAdhocTemplates; ++t) {
    cards.push_back(t);
    cards.push_back(t);
  }
  cards.push_back(kAdhocTemplates - 1);
  return cards;
}

}  // namespace

StatementStream::StatementStream(const std::string& workload, uint64_t seed,
                                 size_t client)
    : workload_(workload),
      rng_(StreamSeed(workload, seed, client + 1)),
      texts_(TextCards(workload)),
      writes_([] {
        std::vector<size_t> cards(kReadsPerWrite + 1, 0);
        cards[0] = 1;
        return cards;
      }()) {}

Statement StatementStream::Next() {
  Statement s;
  if (workload_ == "adhoc_small") {
    s.text = AdhocText(rng_, texts_.Draw(rng_));
  } else if (workload_ == "analytic_large") {
    s.text = AnalyticTexts()[texts_.Draw(rng_)];
  } else if (writes_.Draw(rng_) == 1) {
    s.write = true;
    s.relation = rng_.Below(2) == 0 ? "R" : "S";
    s.version = rng_.Below(kVersions);
  } else {
    s.text = UpdateReadTexts()[texts_.Draw(rng_)];
  }
  return s;
}

CatalogEntry InferredEntry(const Relation& data) {
  Catalog scratch;
  TQP_CHECK(scratch.RegisterWithInferredFlags("x", data).ok());
  return *scratch.Find("x");
}

}  // namespace qbench

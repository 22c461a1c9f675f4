#include "digest.h"

#include <atomic>
#include <functional>
#include <thread>

#include "core/json.h"

namespace qbench {

namespace {

constexpr char kBatchPrefix[] = "{\"type\":\"batch\",\"rows\":[";
constexpr char kSchemaPrefix[] = "{\"type\":\"schema\"";

bool StartsWith(const std::string& s, size_t pos, const char* prefix) {
  return s.compare(pos, std::char_traits<char>::length(prefix), prefix) == 0;
}

/// The canonical form both digests hash: the schema frame, a newline, then
/// every row's JSON array in list order, comma-separated.
uint64_t Canonical(const std::string& schema, const std::string& rows) {
  return std::hash<std::string>()(schema + "\n" + rows);
}

/// The service's rendering of one value (service/server.cc): ints and time
/// points as numbers, doubles with JsonWriter's round-trip format.
void WriteValue(tqp::JsonWriter* w, const tqp::Value& v) {
  switch (v.type()) {
    case tqp::ValueType::kNull:
      w->Null();
      return;
    case tqp::ValueType::kInt:
      w->Int(v.AsInt());
      return;
    case tqp::ValueType::kDouble:
      w->Double(v.AsDouble());
      return;
    case tqp::ValueType::kString:
      w->String(v.AsString());
      return;
    case tqp::ValueType::kTime:
      w->Int(v.AsTime());
      return;
  }
}

}  // namespace

uint64_t ReplyDigest(const std::string& raw) {
  std::string schema;
  std::string rows;
  size_t pos = 0;
  while (pos < raw.size()) {
    size_t end = raw.find('\n', pos);
    if (end == std::string::npos) end = raw.size();
    if (StartsWith(raw, pos, kSchemaPrefix)) {
      schema.assign(raw, pos, end - pos);
    } else if (StartsWith(raw, pos, kBatchPrefix)) {
      // {"type":"batch","rows":[ROW,ROW,...]} — keep ROW,ROW,...
      const size_t from = pos + sizeof(kBatchPrefix) - 1;
      const size_t to = end >= from + 2 ? end - 2 : from;
      if (!rows.empty() && to > from) rows += ',';
      rows.append(raw, from, to - from);
    }
    pos = end + 1;
  }
  return Canonical(schema, rows);
}

uint64_t RelationDigest(const tqp::Relation& rel) {
  tqp::JsonWriter s;
  s.BeginObject();
  s.Key("type").String("schema");
  s.Key("attrs").BeginArray();
  for (const tqp::Attribute& a : rel.schema().attrs()) {
    s.BeginObject();
    s.Key("name").String(a.name);
    s.Key("type").String(tqp::ValueTypeName(a.type));
    s.EndObject();
  }
  s.EndArray();
  s.EndObject();

  tqp::JsonWriter r;
  r.BeginArray();
  for (const tqp::Tuple& t : rel.tuples()) {
    r.BeginArray();
    for (const tqp::Value& v : t.values()) WriteValue(&r, v);
    r.EndArray();
  }
  r.EndArray();
  const std::string& all = r.str();  // [ROW,ROW,...]
  return Canonical(s.str(), all.substr(1, all.size() - 2));
}

void StateHistory::Append(const std::string& relation, size_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  CatalogState next = states_.back();
  next[relation] = version;
  states_.push_back(std::move(next));
}

size_t StateHistory::Last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size() - 1;
}

CatalogState StateHistory::At(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.at(index);
}

ReferenceOracle::ReferenceOracle(const Workload& workload)
    : workload_(workload) {}

ReferenceOracle::~ReferenceOracle() = default;

uint64_t ReferenceOracle::Reference(const std::string& text,
                                    const CatalogState& state, bool* ok) {
  tqp::Engine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<tqp::Engine>& slot = engines_[state];
    if (slot == nullptr) {
      tqp::Catalog catalog = workload_.catalog;
      for (const auto& [relation, version] : state) {
        TQP_CHECK(
            catalog.Update(relation, workload_.versions.at(relation)[version])
                .ok());
      }
      // Same optimizer configuration as the served Engine, so the same plan
      // is chosen; everything that could mask a wrong answer is off.
      tqp::EngineOptions options = workload_.options;
      options.executor = tqp::ExecutorKind::kReference;
      options.vexec_threads = 1;
      options.backend = tqp::BackendKind::kSimulated;
      options.cache_plans = false;
      options.reuse_search_caches = false;
      options.incremental_execution = false;
      options.publish_metrics = false;
      slot = std::make_unique<tqp::Engine>(std::move(catalog), options);
    }
    engine = slot.get();
  }
  auto result = engine->Query(text);
  *ok = result.ok();
  return result.ok() ? RelationDigest(result->relation) : 0;
}

uint64_t ReferenceOracle::CountFailures(const std::vector<ReadRecord>& records,
                                        const StateHistory& history,
                                        size_t threads) {
  // Every distinct (text, state) some successful reply may have observed.
  using Key = std::pair<std::string, CatalogState>;
  std::map<Key, size_t> index;
  std::vector<Key> keys;
  for (const ReadRecord& r : records) {
    if (!r.ok) continue;
    for (size_t s = r.first_state; s <= r.last_state; ++s) {
      Key key(r.text, history.At(s));
      if (index.emplace(key, keys.size()).second) keys.push_back(key);
    }
  }

  std::vector<uint64_t> digest(keys.size());
  std::vector<char> valid(keys.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < keys.size();) {
      bool ok = false;
      digest[i] = Reference(keys[i].first, keys[i].second, &ok);
      valid[i] = ok;
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();

  uint64_t failures = 0;
  for (const ReadRecord& r : records) {
    bool matched = false;
    for (size_t s = r.first_state; r.ok && !matched && s <= r.last_state;
         ++s) {
      const size_t i = index.at(Key(r.text, history.At(s)));
      matched = valid[i] && digest[i] == r.digest;
    }
    if (!matched) ++failures;
  }
  return failures;
}

}  // namespace qbench

#include "serve/event_json.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <limits>

#include "common/json.h"
#include "common/strings.h"
#include "session/spec_json.h"

namespace bati {

namespace {

constexpr double kNoMax = std::numeric_limits<double>::max();

/// Parses a deploy config: space-separated non-negative candidate
/// positions ("1 4 7"); the empty string is the base (no-index)
/// configuration. Duplicates are rejected so a diff is well-defined.
Status ParseConfigString(const std::string& text,
                         std::vector<size_t>* positions) {
  positions->clear();
  size_t last = static_cast<size_t>(-1);
  bool have_last = false;
  for (const std::string& token : Split(Trim(text), ' ')) {
    if (token.empty()) continue;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(token.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || parsed < 0) {
      return Status::InvalidArgument("\"config\" must be space-separated "
                                     "non-negative positions, got '" +
                                     token + "'");
    }
    const size_t pos = static_cast<size_t>(parsed);
    if (have_last && pos <= last) {
      return Status::InvalidArgument(
          "\"config\" positions must be strictly ascending");
    }
    positions->push_back(pos);
    last = pos;
    have_last = true;
  }
  return Status::Ok();
}

Status ParseEvent(const std::string& line, ServeEvent* event) {
  *event = ServeEvent();
  std::vector<JsonField> fields;
  fields.reserve(8);
  Status st = ReadFlatObject(line, "event line", &fields);
  if (!st.ok()) return st;

  std::string type;
  for (const JsonField& f : fields) {
    if (f.key != "type") continue;
    st = WantString(f, &type);
    if (!st.ok()) return st;
  }
  if (type.empty()) {
    return Status::InvalidArgument("\"type\" is required");
  }

  bool have_query = false;
  bool have_config = false;
  bool have_seconds = false;
  if (type == "query") {
    event->type = ServeEventType::kQuery;
    for (const JsonField& f : fields) {
      int64_t integer = 0;
      if (f.key == "type") {
        continue;
      } else if (f.key == "tenant") {
        st = WantString(f, &event->tenant);
      } else if (f.key == "query") {
        st = WantInt(f, 0, INT_MAX, &integer);
        if (st.ok()) {
          event->query_id = static_cast<int>(integer);
          have_query = true;
        }
      } else if (f.key == "weight") {
        st = WantNumber(f, 0.0, kNoMax, &event->weight);
        if (st.ok() && event->weight <= 0.0) {
          st = Status::InvalidArgument("\"weight\" must be positive");
        }
      } else {
        st = Status::InvalidArgument("unknown key \"" + f.key +
                                     "\" for a query event");
      }
      if (!st.ok()) return st;
    }
    if (!have_query) {
      return Status::InvalidArgument("query events require \"query\"");
    }
  } else if (type == "register") {
    event->type = ServeEventType::kRegister;
    // Residual keys are the tuning template, handed to the strict RunSpec
    // field validator so serve accepts exactly the bati_batch spec
    // vocabulary (budget, k, seed, governor, faults, ...).
    std::vector<JsonField> template_fields;
    for (JsonField& f : fields) {
      if (f.key == "type") {
        continue;
      } else if (f.key == "tenant") {
        st = WantString(f, &event->tenant);
      } else if (f.key == "queue_quota") {
        st = WantInt(f, 1, INT64_MAX, &event->queue_quota);
      } else if (f.key == "budget_quota") {
        st = WantInt(f, 0, INT64_MAX, &event->budget_quota);
      } else if (f.key == "tune") {
        st = WantBool(f, &event->tune_on_register);
      } else {
        template_fields.push_back(std::move(f));
      }
      if (!st.ok()) return st;
    }
    st = RunSpecFromFields(template_fields, &event->spec);
    if (!st.ok()) return st;
  } else if (type == "tune") {
    event->type = ServeEventType::kTune;
    for (const JsonField& f : fields) {
      if (f.key == "type") {
        continue;
      } else if (f.key == "tenant") {
        st = WantString(f, &event->tenant);
      } else if (f.key == "budget") {
        st = WantInt(f, 0, INT64_MAX, &event->budget_override);
      } else if (f.key == "seed") {
        st = WantInt(f, 0, INT64_MAX, &event->seed_override);
      } else if (f.key == "algorithm") {
        st = WantString(f, &event->algorithm_override);
        if (st.ok()) st = ParseAlgorithm(event->algorithm_override).status();
      } else {
        st = Status::InvalidArgument("unknown key \"" + f.key +
                                     "\" for a tune event");
      }
      if (!st.ok()) return st;
    }
  } else if (type == "deploy") {
    event->type = ServeEventType::kDeploy;
    for (const JsonField& f : fields) {
      if (f.key == "type") {
        continue;
      } else if (f.key == "tenant") {
        st = WantString(f, &event->tenant);
      } else if (f.key == "config") {
        std::string text;
        st = WantString(f, &text);
        if (st.ok()) st = ParseConfigString(text, &event->config);
        if (st.ok()) have_config = true;
      } else {
        st = Status::InvalidArgument("unknown key \"" + f.key +
                                     "\" for a deploy event");
      }
      if (!st.ok()) return st;
    }
    if (!have_config) {
      return Status::InvalidArgument("deploy events require \"config\"");
    }
  } else if (type == "advance") {
    event->type = ServeEventType::kAdvance;
    for (const JsonField& f : fields) {
      if (f.key == "type") {
        continue;
      } else if (f.key == "seconds") {
        st = WantNumber(f, 0.0, kNoMax, &event->seconds);
        if (st.ok()) have_seconds = true;
        if (st.ok() && event->seconds <= 0.0) {
          st = Status::InvalidArgument("\"seconds\" must be positive");
        }
      } else {
        st = Status::InvalidArgument("unknown key \"" + f.key +
                                     "\" for an advance event");
      }
      if (!st.ok()) return st;
    }
    if (!have_seconds) {
      return Status::InvalidArgument("advance events require \"seconds\"");
    }
  } else if (type == "drain") {
    event->type = ServeEventType::kDrain;
    for (const JsonField& f : fields) {
      if (f.key != "type") {
        return Status::InvalidArgument("unknown key \"" + f.key +
                                       "\" for a drain event");
      }
    }
  } else {
    return Status::InvalidArgument("unknown event type \"" + type + "\"");
  }

  const bool needs_tenant = event->type == ServeEventType::kQuery ||
                            event->type == ServeEventType::kRegister ||
                            event->type == ServeEventType::kTune ||
                            event->type == ServeEventType::kDeploy;
  if (needs_tenant && event->tenant.empty()) {
    return Status::InvalidArgument("\"tenant\" is required");
  }
  return Status::Ok();
}

}  // namespace

Status ParseServeEventJson(const std::string& line, int lineno,
                           ServeEvent* event) {
  Status st = ParseEvent(line, event);
  if (st.ok()) return st;
  return Status::InvalidArgument("line " + std::to_string(lineno) + ": " +
                                 st.message());
}

}  // namespace bati

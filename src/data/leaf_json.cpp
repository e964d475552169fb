#include "data/leaf_json.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/json.h"

namespace fed {

namespace {

std::string user_name(std::size_t index) {
  return std::string("u").append(std::to_string(index));
}

JsonValue encode_split(const FederatedDataset& data, bool train) {
  JsonArray users;
  JsonArray num_samples;
  JsonObject user_data;
  for (std::size_t k = 0; k < data.num_clients(); ++k) {
    const Dataset& split =
        train ? data.clients[k].train : data.clients[k].test;
    users.emplace_back(user_name(k));
    num_samples.emplace_back(split.size());

    JsonArray xs, ys;
    for (std::size_t i = 0; i < split.size(); ++i) {
      JsonArray x;
      if (split.is_sequence()) {
        for (auto tok : split.tokens[i]) x.emplace_back(double(tok));
      } else {
        for (double v : split.features.row(i)) x.emplace_back(v);
      }
      xs.emplace_back(std::move(x));
      ys.emplace_back(double(split.labels[i]));
    }
    JsonObject record;
    record["x"] = JsonValue(std::move(xs));
    record["y"] = JsonValue(std::move(ys));
    user_data[user_name(k)] = JsonValue(std::move(record));
  }
  JsonObject root;
  root["users"] = JsonValue(std::move(users));
  root["num_samples"] = JsonValue(std::move(num_samples));
  root["user_data"] = JsonValue(std::move(user_data));
  return JsonValue(std::move(root));
}

std::int32_t to_int_label(double v) {
  const double rounded = std::round(v);
  if (std::abs(rounded - v) > 1e-9 ||
      !(rounded >= std::numeric_limits<std::int32_t>::min() &&
        rounded <= std::numeric_limits<std::int32_t>::max())) {
    throw std::runtime_error("leaf import: label is not an int32 integer");
  }
  return static_cast<std::int32_t>(rounded);
}

Dataset decode_user(const JsonValue& record, bool sequence,
                    std::size_t input_dim) {
  Dataset out;
  const JsonArray& xs = record.at("x").as_array();
  const JsonArray& ys = record.at("y").as_array();
  if (xs.size() != ys.size()) {
    throw std::runtime_error("leaf import: x/y length mismatch");
  }
  if (!sequence) out.features = Matrix(0, input_dim);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const JsonArray& x = xs[i].as_array();
    if (sequence) {
      std::vector<std::int32_t> tokens;
      tokens.reserve(x.size());
      for (const auto& t : x) tokens.push_back(to_int_label(t.as_number()));
      out.tokens.push_back(std::move(tokens));
    } else {
      if (x.size() != input_dim) {
        throw std::runtime_error("leaf import: feature width mismatch");
      }
      Vector& buf = out.features.storage();
      for (const auto& v : x) buf.push_back(v.as_number());
      out.features =
          Matrix(out.features.rows() + 1, input_dim, std::move(buf));
    }
    out.labels.push_back(to_int_label(ys[i].as_number()));
  }
  return out;
}

void decode_split(const JsonValue& root, bool sequence, std::size_t input_dim,
                  bool train, FederatedDataset& data) {
  const JsonArray& users = root.at("users").as_array();
  const JsonValue& user_data = root.at("user_data");
  if (train) data.clients.resize(users.size());
  for (std::size_t k = 0; k < users.size(); ++k) {
    const std::string& user = users[k].as_string();
    if (!user_data.contains(user)) {
      throw std::runtime_error("leaf import: user_data missing '" + user + "'");
    }
    Dataset split = decode_user(user_data.at(user), sequence, input_dim);
    if (train) {
      data.clients[k].train = std::move(split);
    } else {
      if (k >= data.clients.size()) {
        throw std::runtime_error("leaf import: test split has extra users");
      }
      data.clients[k].test = std::move(split);
    }
  }
}

}  // namespace

void export_leaf(const FederatedDataset& data, const std::string& prefix) {
  JsonObject meta;
  meta["name"] = JsonValue(data.name);
  meta["num_classes"] = JsonValue(data.num_classes);
  meta["input_dim"] = JsonValue(data.input_dim);
  meta["vocab_size"] = JsonValue(data.vocab_size);
  save_json_file(prefix + "_meta.json", JsonValue(std::move(meta)));
  save_json_file(prefix + "_train.json", encode_split(data, /*train=*/true));
  save_json_file(prefix + "_test.json", encode_split(data, /*train=*/false));
}

FederatedDataset import_leaf(const std::string& prefix) {
  const JsonValue meta = load_json_file(prefix + "_meta.json");
  FederatedDataset data;
  data.name = meta.at("name").as_string();
  data.num_classes = meta.at("num_classes").as_count();
  data.input_dim = meta.at("input_dim").as_count();
  data.vocab_size = meta.at("vocab_size").as_count();
  const bool sequence = data.vocab_size > 0;

  decode_split(load_json_file(prefix + "_train.json"), sequence,
               data.input_dim, /*train=*/true, data);
  decode_split(load_json_file(prefix + "_test.json"), sequence, data.input_dim,
               /*train=*/false, data);

  for (auto& client : data.clients) {
    client.train.validate(data.num_classes);
    client.test.validate(data.num_classes);
  }
  return data;
}

}  // namespace fed

#include "data/leaf_json.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "data/sequence.h"
#include "data/synthetic.h"
#include "support/json.h"

namespace fed {
namespace {

// Each test gets its own directory, named from the test and the process:
// ctest runs every test as its own process, in parallel under -j.
class LeafJsonTest : public ::testing::Test {
 protected:
  void SetUp() override { std::filesystem::remove_all(dir); }
  void TearDown() override { std::filesystem::remove_all(dir); }
  const std::string dir =
      ::testing::TempDir() + "fedprox_leaf_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid());
  const std::string prefix = dir + "/data";

  // Exports a two-device IID synthetic dataset to `prefix`.
  void export_small() const {
    SyntheticConfig c = synthetic_iid_config(17);
    c.num_devices = 2;
    c.min_samples = 4;
    c.mean_log = 1.0;
    c.sigma_log = 0.1;
    export_leaf(make_synthetic(c), prefix);
  }
};

TEST_F(LeafJsonTest, DenseRoundTripIsExact) {
  SyntheticConfig c = synthetic_config(1.0, 1.0, 17);
  c.num_devices = 4;
  c.min_samples = 8;
  c.mean_log = 2.0;
  c.sigma_log = 0.3;
  const FederatedDataset original = make_synthetic(c);
  export_leaf(original, prefix);
  const FederatedDataset loaded = import_leaf(prefix);

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.num_classes, original.num_classes);
  EXPECT_EQ(loaded.input_dim, original.input_dim);
  ASSERT_EQ(loaded.num_clients(), original.num_clients());
  for (std::size_t k = 0; k < original.num_clients(); ++k) {
    EXPECT_EQ(loaded.clients[k].train.labels, original.clients[k].train.labels);
    EXPECT_EQ(loaded.clients[k].test.labels, original.clients[k].test.labels);
    ASSERT_EQ(loaded.clients[k].train.features.rows(),
              original.clients[k].train.features.rows());
    const auto& a = loaded.clients[k].train.features.storage();
    const auto& b = original.clients[k].train.features.storage();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i], b[i]);
    }
  }
}

TEST_F(LeafJsonTest, SequenceRoundTripIsExact) {
  NextCharConfig c;
  c.num_devices = 3;
  c.vocab_size = 9;
  c.seq_len = 5;
  c.min_stream = 30;
  c.mean_log = 2.0;
  c.sigma_log = 0.2;
  c.seed = 17;
  const FederatedDataset original = make_next_char(c);
  export_leaf(original, prefix);
  const FederatedDataset loaded = import_leaf(prefix);

  EXPECT_EQ(loaded.vocab_size, original.vocab_size);
  ASSERT_EQ(loaded.num_clients(), original.num_clients());
  for (std::size_t k = 0; k < original.num_clients(); ++k) {
    EXPECT_EQ(loaded.clients[k].train.tokens, original.clients[k].train.tokens);
    EXPECT_EQ(loaded.clients[k].test.labels, original.clients[k].test.labels);
  }
}

TEST_F(LeafJsonTest, WritesLeafSchemaFields) {
  export_small();
  const JsonValue train = load_json_file(prefix + "_train.json");
  EXPECT_TRUE(train.contains("users"));
  EXPECT_TRUE(train.contains("num_samples"));
  EXPECT_TRUE(train.contains("user_data"));
  const auto& users = train.at("users").as_array();
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0].as_string(), "u0");
  // num_samples agrees with the per-user record length.
  const auto n0 =
      static_cast<std::size_t>(train.at("num_samples").as_array()[0].as_number());
  EXPECT_EQ(train.at("user_data").at("u0").at("y").as_array().size(), n0);
}

TEST_F(LeafJsonTest, ImportValidatesLabels) {
  export_small();
  // Corrupt a label beyond num_classes.
  JsonValue train = load_json_file(prefix + "_train.json");
  train.as_object()["user_data"].as_object()["u0"].as_object()["y"]
      .as_array()[0] = JsonValue(99.0);
  save_json_file(prefix + "_train.json", train);
  EXPECT_THROW(import_leaf(prefix), std::runtime_error);
}

TEST_F(LeafJsonTest, ImportRejectsCountsAndLabelsOutOfRange) {
  export_small();
  const JsonValue meta = load_json_file(prefix + "_meta.json");
  for (const char* key : {"num_classes", "input_dim", "vocab_size"}) {
    JsonValue bad = meta;
    bad.as_object()[key] = JsonValue(-1.0);
    save_json_file(prefix + "_meta.json", bad);
    EXPECT_THROW(import_leaf(prefix), std::runtime_error) << key;
  }
  save_json_file(prefix + "_meta.json", meta);
  JsonValue train = load_json_file(prefix + "_train.json");
  train.as_object()["user_data"].as_object()["u0"].as_object()["y"]
      .as_array()[0] = JsonValue(1e30);
  save_json_file(prefix + "_train.json", train);
  EXPECT_THROW(import_leaf(prefix), std::runtime_error);
}

TEST_F(LeafJsonTest, MissingMetadataThrows) {
  EXPECT_THROW(import_leaf(dir + "/nothing"),
               std::runtime_error);
}

}  // namespace
}  // namespace fed

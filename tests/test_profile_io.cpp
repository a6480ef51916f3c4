#include "core/profile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "io/artifact.hpp"
#include "io/binary.hpp"
#include "ml/hybrid_rsl.hpp"
#include "ml/model_io.hpp"
#include "ml/svm.hpp"
#include "networks/builtin.hpp"
#include "sensing/placement.hpp"

namespace aqua::core {
namespace {

// A small but non-degenerate training setup: enough scenarios that the
// per-node classifiers see both classes at some nodes, small enough that
// training all six kinds on two networks stays fast.
struct Setup {
  hydraulics::Network net;
  std::vector<LeakScenario> scenarios;
  sensing::SensorSet sensors;
  std::unique_ptr<SnapshotBatch> batch;  // references `net`
  ml::MultiLabelDataset eval;
};

std::unique_ptr<Setup> make_setup(bool wssc) {
  auto s = std::make_unique<Setup>();
  s->net = wssc ? networks::make_wssc_subnet() : networks::make_epa_net();
  ScenarioConfig config;
  config.min_events = 1;
  config.max_events = 2;
  config.min_leak_slot = 2;
  config.max_leak_slot = 6;
  config.seed = wssc ? 21 : 11;
  ScenarioGenerator generator(s->net, config);
  s->scenarios = generator.generate(wssc ? 10 : 14);
  s->batch = std::make_unique<SnapshotBatch>(s->net, s->scenarios,
                                             std::vector<std::size_t>{1});
  s->sensors = sensing::full_observation(s->net);
  s->eval = s->batch->build_dataset(s->scenarios, s->sensors, 0, {}, 999);
  return s;
}

ProfileModel train_kind(const Setup& s, ModelKind kind) {
  ProfileTrainingConfig config;
  config.kind = kind;
  config.noise.pressure_sigma_m = 0.05;  // non-default, to catch metadata loss
  return train_profile(*s.batch, s.scenarios, s.sensors, 0, config);
}

std::string save_bytes(const ProfileModel& profile) {
  std::ostringstream out(std::ios::binary);
  profile.save(out);
  return out.str();
}

ProfileModel load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return ProfileModel::load(in);
}

void expect_bit_identical(const ProfileModel& original, const ProfileModel& loaded,
                          const ml::Matrix& x) {
  EXPECT_EQ(loaded.kind, original.kind);
  EXPECT_EQ(loaded.elapsed_index, original.elapsed_index);
  EXPECT_EQ(loaded.include_time_feature, original.include_time_feature);
  EXPECT_EQ(loaded.noise.pressure_sigma_m, original.noise.pressure_sigma_m);
  EXPECT_EQ(loaded.noise.flow_sigma_frac, original.noise.flow_sigma_frac);
  EXPECT_EQ(loaded.noise.flow_sigma_floor_m3s, original.noise.flow_sigma_floor_m3s);
  ASSERT_EQ(loaded.sensors.size(), original.sensors.size());
  for (std::size_t k = 0; k < original.sensors.size(); ++k) {
    EXPECT_EQ(loaded.sensors.sensors[k].kind, original.sensors.sensors[k].kind);
    EXPECT_EQ(loaded.sensors.sensors[k].index, original.sensors.sensors[k].index);
    EXPECT_EQ(loaded.sensors.sensors[k].name, original.sensors.sensors[k].name);
  }
  ASSERT_EQ(loaded.model.num_labels(), original.model.num_labels());

  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    const auto pa = original.model.predict_proba(row);
    const auto pb = loaded.model.predict_proba(row);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t l = 0; l < pa.size(); ++l) {
      // Bit-exact, not approximately equal: the artifact stores the full
      // classifier state, so the loaded model must be the same function.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pa[l]), std::bit_cast<std::uint64_t>(pb[l]))
          << "row " << i << " label " << l;
    }
  }
}

void round_trip_all_kinds(bool wssc) {
  const auto s = make_setup(wssc);
  for (ModelKind kind : all_model_kinds()) {
    SCOPED_TRACE(model_kind_name(kind));
    const ProfileModel original = train_kind(*s, kind);
    const ProfileModel loaded = load_bytes(save_bytes(original));
    expect_bit_identical(original, loaded, s->eval.features);
  }
}

TEST(ProfileIo, RoundTripAllKindsEpaNet) { round_trip_all_kinds(false); }

TEST(ProfileIo, RoundTripAllKindsWsscSubnet) { round_trip_all_kinds(true); }

TEST(ProfileIo, LoadFileBitIdenticalToInMemoryOnAllKinds) {
  // The file path every serving load takes: load_file(save_file(p))
  // decodes the same function as the in-memory model for every
  // classifier kind.
  const auto s = make_setup(false);
  const std::string path = ::testing::TempDir() + "aqua_profile_file.aquamodl";
  for (ModelKind kind : all_model_kinds()) {
    SCOPED_TRACE(model_kind_name(kind));
    const ProfileModel original = train_kind(*s, kind);
    original.save_file(path);
    expect_bit_identical(original, ProfileModel::load_file(path), s->eval.features);
  }
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadFileRejectsTrailingBytes) {
  // An artifact is the whole file: bytes appended after the last section
  // make load_file throw rather than decode the sections and ignore them.
  const auto s = make_setup(false);
  const std::string path = ::testing::TempDir() + "aqua_profile_trailing.aquamodl";
  train_kind(*s, ModelKind::kLinearR).save_file(path);
  EXPECT_NO_THROW(ProfileModel::load_file(path));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  EXPECT_THROW(ProfileModel::load_file(path), io::SerializationError);
  std::remove(path.c_str());
}

TEST(ProfileIo, SensorsNarrowerThanTheModelReadsThrow) {
  // InferenceEngine checks requests against the sensors section alone, so
  // a section cut below the width the classifiers read would let every
  // request be read past its end. The writer stamps valid CRCs over the
  // cut section; only the width check can catch it.
  const auto s = make_setup(false);
  const std::string path = ::testing::TempDir() + "aqua_profile_cut_sensors.aquamodl";
  for (ModelKind kind : all_model_kinds()) {
    SCOPED_TRACE(model_kind_name(kind));
    ProfileModel profile = train_kind(*s, kind);
    ASSERT_GT(profile.sensors.size(), 3u);

    profile.save_file(path);
    EXPECT_NO_THROW(ProfileModel::load_file(path));

    profile.sensors.sensors.resize(3);
    profile.save_file(path);
    EXPECT_THROW(ProfileModel::load_file(path), io::SerializationError);
  }
  std::remove(path.c_str());
}

TEST(ProfileIo, LoadFileOfMissingOrEmptyFileThrows) {
  EXPECT_THROW(ProfileModel::load_file("/nonexistent/definitely/missing.aquamodl"),
               io::SerializationError);
  const std::string path = ::testing::TempDir() + "aqua_profile_empty.aquamodl";
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW(ProfileModel::load_file(path), io::SerializationError);
  std::remove(path.c_str());
}

TEST(ProfileIo, StoreTrainedNonDefaultBinsRoundTrip) {
  // A shared-store-trained ensemble with a non-default bin budget must
  // survive the artifact round trip (max_bins is fitted state now) and
  // stay refittable through the store path.
  const auto s = make_setup(false);
  ProfileModel original;
  original.sensors = s->sensors;
  original.include_time_feature = true;
  original.kind = ModelKind::kRandomForest;
  original.model = ml::MultiLabelModel([] {
    ml::RandomForestConfig config;
    config.max_bins = 128;
    return std::make_unique<ml::RandomForestClassifier>(config);
  });
  original.model.fit(s->eval);
  ProfileModel loaded = load_bytes(save_bytes(original));
  expect_bit_identical(original, loaded, s->eval.features);
  loaded.model.fit(s->eval);  // refit through the rebuilt factory
  EXPECT_EQ(loaded.model.num_labels(), original.model.num_labels());
}

TEST(ProfileIo, SaveLoadSaveIsStable) {
  // Serialization is a pure function of model state: saving the loaded
  // model reproduces the original byte stream exactly, SVM feature map
  // table included.
  const auto s = make_setup(false);
  for (ModelKind kind : all_model_kinds()) {
    SCOPED_TRACE(model_kind_name(kind));
    const ProfileModel original = train_kind(*s, kind);
    const std::string first = save_bytes(original);
    const std::string second = save_bytes(load_bytes(first));
    EXPECT_EQ(first, second);
  }
}

TEST(ProfileIo, LoadedModelCanRefit) {
  const auto s = make_setup(false);
  ProfileModel loaded = load_bytes(save_bytes(train_kind(*s, ModelKind::kLinearR)));
  // The factory is reconstructed on load, so Phase I can retrain in place.
  loaded.model.fit(s->eval);
  EXPECT_EQ(loaded.model.num_labels(), s->eval.num_labels());
  const auto proba = loaded.model.predict_proba(s->eval.features.row(0));
  EXPECT_EQ(proba.size(), s->eval.num_labels());
}

/// The feature map of every fitted label's SVM, plain or inside HybridRSL
/// (constant labels hold no classifier).
std::vector<const ml::SvmFeatureMap*> svm_maps(const ProfileModel& profile) {
  std::vector<const ml::SvmFeatureMap*> maps;
  for (std::size_t label = 0; label < profile.model.num_labels(); ++label) {
    const ml::BinaryClassifier* c = profile.model.classifier(label);
    const auto* svm = dynamic_cast<const ml::SvmClassifier*>(c);
    if (const auto* hybrid = dynamic_cast<const ml::HybridRslClassifier*>(c)) svm = &hybrid->svm();
    if (svm != nullptr) maps.push_back(svm->feature_map().get());
  }
  return maps;
}

TEST(ProfileIo, SvmKindsHoldOneFeatureMapAfterFitAndLoad) {
  // MultiLabelModel fits one SVM feature map and every label keeps it;
  // the artifact writes it once and the reader hands every label the one
  // loaded object, so the batched path shares it by pointer.
  const auto s = make_setup(false);
  const std::string path = ::testing::TempDir() + "aqua_profile_shared_map.aquamodl";
  for (ModelKind kind : {ModelKind::kSvm, ModelKind::kHybridRsl}) {
    SCOPED_TRACE(model_kind_name(kind));
    const ProfileModel original = train_kind(*s, kind);
    original.save_file(path);
    const ProfileModel loaded = ProfileModel::load_file(path);
    for (const ProfileModel* profile : {&original, &loaded}) {
      const auto maps = svm_maps(*profile);
      ASSERT_GE(maps.size(), 2u);
      for (const ml::SvmFeatureMap* map : maps) EXPECT_EQ(map, maps.front());
    }
    EXPECT_NE(svm_maps(loaded).front(), svm_maps(original).front());
    expect_bit_identical(original, loaded, s->eval.features);
  }
  std::remove(path.c_str());
}

TEST(ProfileIo, HybridArtifactWritesTheFeatureMapOnce) {
  // One map per fitted label would make the artifact at least that many
  // maps long; the shared table keeps it well under.
  const auto s = make_setup(false);
  const ProfileModel profile = train_kind(*s, ModelKind::kHybridRsl);
  const auto maps = svm_maps(profile);
  ASSERT_GE(maps.size(), 3u);
  io::BinaryWriter one_map;
  maps.front()->save(one_map);
  EXPECT_LT(save_bytes(profile).size(), maps.size() * one_map.size());
}

/// The artifact's sections as (name, payload), in table order.
std::vector<std::pair<std::string, std::string>> artifact_sections(const std::string& bytes) {
  io::BinaryReader header(std::string_view(bytes).substr(8));  // past the magic
  header.read_u32();                                            // version
  const std::uint32_t count = header.read_u32();
  std::vector<std::pair<std::string, std::uint64_t>> table;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = header.read_string();
    const std::uint64_t size = header.read_u64();
    header.read_u32();  // CRC
    table.emplace_back(std::move(name), size);
  }
  std::size_t offset = bytes.size() - header.remaining();
  std::vector<std::pair<std::string, std::string>> sections;
  for (const auto& [name, size] : table) {
    sections.emplace_back(name, bytes.substr(offset, size));
    offset += size;
  }
  return sections;
}

/// `bytes` re-emitted with the `model` payload replaced; ArtifactWriter
/// re-stamps every section CRC, so the crafted payload reaches the model
/// decoder.
std::string with_model_payload(const std::string& bytes, const std::string& model) {
  io::ArtifactWriter writer;
  for (const auto& [name, payload] : artifact_sections(bytes)) {
    writer.section(name).write_bytes(name == "model" ? model : payload);
  }
  std::ostringstream out(std::ios::binary);
  writer.write_to(out);
  return out.str();
}

/// A feature map payload of the given shapes (v3 layout: input scaler,
/// RFF weights, offsets, decision scaler); the values do not matter.
std::string map_payload(std::size_t scaler_width, std::size_t rows, std::size_t cols,
                        std::size_t decision_width) {
  io::BinaryWriter writer;
  writer.write_f64_vector(std::vector<double>(scaler_width, 0.0));
  writer.write_f64_vector(std::vector<double>(scaler_width, 1.0));
  ml::write_matrix(writer, ml::Matrix(rows, cols, 0.1));
  writer.write_f64_vector(std::vector<double>(rows, 0.0));
  writer.write_f64_vector(std::vector<double>(decision_width, 0.0));
  writer.write_f64_vector(std::vector<double>(decision_width, 1.0));
  return writer.buffer();
}

void expect_rejected(const std::string& bytes, const std::string& reason) {
  std::istringstream in(bytes);
  try {
    ProfileModel::load(in);
    ADD_FAILURE() << "loaded an artifact with " << reason;
  } catch (const io::SerializationError& error) {
    EXPECT_NE(std::string(error.what()).find(reason), std::string::npos) << error.what();
  }
}

TEST(ProfileIo, HostileFeatureMapThrows) {
  // The v4 model payload is [kind tag][map flag][map][label count][labels].
  // Each case swaps the one map for a crafted one (or none) and re-stamps
  // the CRCs; a map of the right shapes still loads, so the decoder is
  // reached.
  const auto s = make_setup(false);
  for (ModelKind kind : {ModelKind::kSvm, ModelKind::kHybridRsl}) {
    SCOPED_TRACE(model_kind_name(kind));
    const ProfileModel profile = train_kind(*s, kind);
    const auto maps = svm_maps(profile);
    ASSERT_FALSE(maps.empty());
    io::BinaryWriter real_map;
    maps.front()->save(real_map);
    const std::string bytes = save_bytes(profile);
    std::string model;
    for (const auto& [name, payload] : artifact_sections(bytes)) {
      if (name == "model") model = payload;
    }
    io::BinaryReader head(model);
    ASSERT_EQ(head.read_string(), model_kind_name(kind));
    ASSERT_TRUE(head.read_bool());
    const std::size_t map_at = model.size() - head.remaining();
    ASSERT_EQ(model.substr(map_at, real_map.size()), real_map.buffer());
    const std::string tag = model.substr(0, map_at - 1);
    const std::string labels = model.substr(map_at + real_map.size());
    auto with_map = [&](bool present, const std::string& map) {
      return with_model_payload(bytes, tag + std::string(1, present ? '\1' : '\0') + map + labels);
    };
    const std::size_t d = profile.num_features();
    const std::size_t dim = maps.front()->dimension();

    std::istringstream control(with_map(true, map_payload(d, dim, d, dim)));
    EXPECT_NO_THROW(ProfileModel::load(control));
    expect_rejected(with_map(false, ""), "the model holds no feature map");
    expect_rejected(with_map(true, map_payload(d + 1, dim, d, dim)),
                    "input-scaler width differs from RFF weight columns");
    expect_rejected(with_map(true, map_payload(d, dim - 1, d, dim - 1)),
                    "weight count differs from its map");
  }
}

TEST(ProfileIo, SaveRejectsAKindOtherThanTheModels) {
  // The model payload's kind tag is the one record of the kind: a profile
  // whose `kind` names another kind than its classifiers is not saved,
  // and load derives `kind` from the tag.
  const auto s = make_setup(false);
  ProfileModel profile = train_kind(*s, ModelKind::kLogisticR);
  EXPECT_EQ(load_bytes(save_bytes(profile)).kind, ModelKind::kLogisticR);
  profile.kind = ModelKind::kRandomForest;
  try {
    save_bytes(profile);
    ADD_FAILURE() << "saved an RF profile around a LogisticR model";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("'RF' differs from its model's 'LogisticR'"),
              std::string::npos)
        << error.what();
  }
}

TEST(ProfileIo, FormatVersion3ArtifactIsRejected) {
  // v3 artifacts wrote a per-label map index and constant modes; this
  // build reads v4 only.
  const auto s = make_setup(false);
  std::string bytes = save_bytes(train_kind(*s, ModelKind::kLinearR));
  ASSERT_EQ(io::kFormatVersion, 4u);
  bytes[8] = 3;  // the little-endian u32 after the 8-byte magic
  expect_rejected(bytes, "unsupported artifact format version 3");
}

TEST(ProfileIo, TruncatedArtifactThrows) {
  const auto s = make_setup(false);
  const std::string bytes = save_bytes(train_kind(*s, ModelKind::kLinearR));
  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const auto cut = static_cast<std::size_t>(fraction * static_cast<double>(bytes.size()));
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW(ProfileModel::load(in), io::SerializationError) << "cut at " << cut;
  }
}

TEST(ProfileIo, CorruptedArtifactThrows) {
  const auto s = make_setup(false);
  const std::string clean = save_bytes(train_kind(*s, ModelKind::kLinearR));
  // Flip one bit in a handful of payload bytes (payloads sit at the tail).
  for (const std::size_t back : {1u, 17u, 256u, 4096u}) {
    ASSERT_LT(back, clean.size());
    std::string bytes = clean;
    const std::size_t pos = bytes.size() - back;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);
    std::istringstream in(bytes);
    EXPECT_THROW(ProfileModel::load(in), io::SerializationError) << "byte from end " << back;
  }
}

TEST(ProfileIo, WrongVersionThrows) {
  const auto s = make_setup(false);
  std::string bytes = save_bytes(train_kind(*s, ModelKind::kLinearR));
  // The format version is the little-endian u32 right after the 8-byte magic.
  ASSERT_GE(bytes.size(), 12u);
  bytes[8] = static_cast<char>(io::kFormatVersion + 1);
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = 0;
  std::istringstream in(bytes);
  EXPECT_THROW(ProfileModel::load(in), io::SerializationError);
}

TEST(ProfileIo, GarbageStreamThrows) {
  std::istringstream in("this is not an aqua artifact at all, not even close");
  EXPECT_THROW(ProfileModel::load(in), io::SerializationError);
}

}  // namespace
}  // namespace aqua::core

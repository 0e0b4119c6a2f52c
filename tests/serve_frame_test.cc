// Tests for request frames (serve/wire.h): `ParseRequest` walks a payload
// once and keeps it as a `RequestFrame`, and a `FrameSource` lowers, names
// and generates scenario windows straight from the payload bytes. The
// contract is that of every scenario source — `Lower` and `Names` equal
// `LowerScenarios` over `Generate`'s window, bit for bit, and fail where it
// fails — plus agreement with `DecodeRequest`, the same walk followed by
// materialization. A seeded mutation fuzz holds both to it on hostile
// payloads: every mutant is refused by both parsers with one status naming
// a field, or accepted by both with identical scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/status.h"
#include "verify/verify.h"

namespace cobra::serve {
namespace {

using core::LoweredScenarios;
using core::ScenarioSet;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameLowered(const LoweredScenarios& a, const LoweredScenarios& b) {
  if (a.offsets != b.offsets || a.overrides.size() != b.overrides.size()) {
    return false;
  }
  for (std::size_t o = 0; o < a.overrides.size(); ++o) {
    if (a.overrides[o].var != b.overrides[o].var ||
        !SameBits(a.overrides[o].value, b.overrides[o].value)) {
      return false;
    }
  }
  return true;
}

/// Scenario sets compare bit for bit: names, delta order, variables and
/// value bits.
bool SameScenarios(const ScenarioSet& a, const ScenarioSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::Scenario& sa = a.scenario(i);
    const core::Scenario& sb = b.scenario(i);
    if (sa.name != sb.name || sa.deltas.size() != sb.deltas.size()) {
      return false;
    }
    for (std::size_t d = 0; d < sa.deltas.size(); ++d) {
      if (sa.deltas[d].var != sb.deltas[d].var ||
          !SameBits(sa.deltas[d].value, sb.deltas[d].value)) {
        return false;
      }
    }
  }
  return true;
}

std::string EncodeBatch(const ScenarioSet& scenarios,
                        std::uint64_t request_id = 9) {
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = request_id;
  request.deadline_ms = 500;
  request.scenarios = scenarios;
  return EncodeRequest(request);
}

RequestFrame Parse(std::string payload) {
  util::Result<RequestFrame> frame = ParseRequest(std::move(payload));
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  return frame.ok() ? std::move(frame).ValueOrDie() : RequestFrame{};
}

class RequestFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_.LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
    session_.SetTreeText(data::kFigure2TreeText).CheckOK();
    session_.SetBound(10);
    session_.Compress().ValueOrDie();
    snapshot_ = session_.Snapshot().ValueOrDie();
    for (const core::MetaVar& meta : snapshot_->meta_vars()) {
      vars_.push_back(meta.name);
    }
    ASSERT_GE(vars_.size(), 2u);
  }

  /// `count` scenarios with 0-5 deltas each over the meta-variables,
  /// repeating variables within a scenario so the last value must win.
  ScenarioSet RandomScenarios(util::Rng& rng, std::size_t count) const {
    ScenarioSet set;
    for (std::size_t i = 0; i < count; ++i) {
      ScenarioSet::Handle handle =
          set.Add("case-" + std::to_string(i)).ValueOrDie();
      const std::size_t deltas = static_cast<std::size_t>(rng.NextBelow(6));
      for (std::size_t d = 0; d < deltas; ++d) {
        handle.Set(vars_[static_cast<std::size_t>(rng.NextBelow(vars_.size()))],
                   rng.NextDoubleInRange(0.5, 1.5));
      }
    }
    return set;
  }

  core::Session session_;
  std::shared_ptr<const core::CompiledSession> snapshot_;
  std::vector<std::string> vars_;
};

// The source contract on random windows, ragged tails and appended halves:
// Lower and Names equal LowerScenarios and the names over Generate's
// window, bit for bit, and Generate equals DecodeRequest's scenarios.
TEST_F(RequestFrameTest, LoweringAndNamesMatchGenerateOnRandomWindows) {
  util::Rng rng(0xF2A3E);
  const core::VarResolver resolver = snapshot_->resolver();
  for (const std::size_t size : {std::size_t{1}, std::size_t{37},
                                 std::size_t{300}}) {
    SCOPED_TRACE(std::to_string(size) + " scenarios");
    const ScenarioSet scenarios = RandomScenarios(rng, size);
    const std::string payload = EncodeBatch(scenarios);
    const RequestFrame frame = Parse(payload);
    const FrameSource source(frame);
    ASSERT_EQ(source.size(), size);
    std::size_t max_deltas = 0;
    for (const core::Scenario& scenario : scenarios.scenarios()) {
      max_deltas = std::max(max_deltas, scenario.deltas.size());
    }
    EXPECT_EQ(source.max_deltas(), max_deltas);
    EXPECT_EQ(source.fingerprint(), frame.hash());

    const WireRequest decoded = DecodeRequest(payload).ValueOrDie();
    ScenarioSet generated_whole;
    ASSERT_TRUE(source.Generate(0, size, &generated_whole).ok());
    EXPECT_TRUE(SameScenarios(generated_whole, decoded.scenarios));
    EXPECT_TRUE(SameScenarios(generated_whole, scenarios));

    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {
        {0, size}, {size - 1, 1}, {size, 0}};
    for (int trial = 0; trial < 24; ++trial) {
      const std::uint64_t begin = rng.NextBelow(size + 1);
      windows.emplace_back(begin, rng.NextBelow(size - begin + 1));
    }
    for (const auto& [begin, count] : windows) {
      SCOPED_TRACE("window [" + std::to_string(begin) + ", +" +
                   std::to_string(count) + ")");
      ScenarioSet generated;
      ASSERT_TRUE(source.Generate(begin, count, &generated).ok());
      LoweredScenarios want;
      ASSERT_TRUE(core::LowerScenarios(generated.scenarios(), resolver, &want)
                      .ok());
      LoweredScenarios got;
      ASSERT_TRUE(source.Lower(begin, count, resolver, &got, nullptr).ok());
      EXPECT_TRUE(SameLowered(got, want));

      const std::uint64_t half = count / 2;
      LoweredScenarios halves;
      std::vector<std::string> lowered_names;
      ASSERT_TRUE(
          source.Lower(begin, half, resolver, &halves, &lowered_names).ok());
      ASSERT_TRUE(source
                      .Lower(begin + half, count - half, resolver, &halves,
                             &lowered_names)
                      .ok());
      EXPECT_TRUE(SameLowered(halves, want));

      std::vector<std::string> names;
      ASSERT_TRUE(source.Names(begin, count, &names).ok());
      ASSERT_EQ(names.size(), generated.size());
      ASSERT_EQ(lowered_names.size(), generated.size());
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], generated.scenario(i).name);
        EXPECT_EQ(lowered_names[i], generated.scenario(i).name);
      }
    }

    // Windows past the end fail alike on every entry point.
    for (const auto& [begin, count] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {size, 1}, {size + 1, 0}, {0, size + 1}}) {
      ScenarioSet generated;
      LoweredScenarios lowered;
      std::vector<std::string> names;
      const util::Status generate = source.Generate(begin, count, &generated);
      const util::Status lower =
          source.Lower(begin, count, resolver, &lowered, &names);
      const util::Status named = source.Names(begin, count, &names);
      ASSERT_FALSE(generate.ok());
      EXPECT_EQ(generate.code(), util::StatusCode::kInvalidArgument);
      EXPECT_EQ(lower.message(), generate.message());
      EXPECT_EQ(named.message(), generate.message());
    }
  }
}

// The frame hash stands for the scenario section: equal lists hash alike
// whatever the header says, and one value bit apart they do not.
TEST_F(RequestFrameTest, HashCoversTheScenarioSectionOnly) {
  util::Rng rng(0x4A54);
  const ScenarioSet scenarios = RandomScenarios(rng, 20);
  const RequestFrame frame = Parse(EncodeBatch(scenarios, /*request_id=*/1));
  const RequestFrame same = Parse(EncodeBatch(scenarios, /*request_id=*/2));
  EXPECT_EQ(frame.hash(), same.hash());

  // One more scenario changes the hash; then its one delta's value, the
  // payload's last 8 bytes, moves by its lowest bit (1.0 becomes its
  // successor, still finite) and changes it again.
  ScenarioSet extended = scenarios;
  extended.Add("extra").ValueOrDie().Set(vars_[0], 1.0);
  std::string payload = EncodeBatch(extended);
  const RequestFrame longer = Parse(payload);
  EXPECT_NE(frame.hash(), longer.hash());
  payload[payload.size() - 8] ^= 1;
  const RequestFrame one_bit = Parse(payload);
  EXPECT_NE(one_bit.hash(), longer.hash());
}

// An unknown variable fails the window that holds it — naming the scenario
// and the variable, as LowerScenarios does — and no other window; a stream
// over the frame fails there, after the windows before it were consumed.
TEST_F(RequestFrameTest, UnknownVariableFailsInItsOwnWindow) {
  util::Rng rng(0xBAD5);
  ScenarioSet scenarios = RandomScenarios(rng, 36);
  scenarios.Add("late-typo").ValueOrDie().Set(vars_[0], 1.1).Set("Busyness",
                                                                  0.9);
  scenarios.Add("after").ValueOrDie().Set(vars_[1], 0.7);
  const RequestFrame frame = Parse(EncodeBatch(scenarios));
  const FrameSource source(frame);
  const core::VarResolver resolver = snapshot_->resolver();

  for (std::uint64_t begin = 0; begin < 32; begin += 16) {
    LoweredScenarios window;
    EXPECT_TRUE(source.Lower(begin, 16, resolver, &window, nullptr).ok());
  }
  LoweredScenarios want;
  const util::Status reference =
      core::LowerScenarios(scenarios.scenarios(), resolver, &want);
  LoweredScenarios got;
  std::vector<std::string> names;
  const util::Status lower = source.Lower(32, 6, resolver, &got, &names);
  ASSERT_FALSE(lower.ok());
  EXPECT_EQ(lower.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(lower.message(), reference.message());
  EXPECT_NE(lower.message().find("late-typo"), std::string::npos)
      << lower.message();
  EXPECT_NE(lower.message().find("Busyness"), std::string::npos)
      << lower.message();

  core::StreamOptions options;
  options.batch.stream_block_scenarios = 16;
  std::size_t windows = 0;
  util::Result<core::SweepSummary> streamed = snapshot_->AssignStream(
      source, options, [&](const core::StreamBlockView&) {
        ++windows;
        return true;
      });
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().message(), reference.message());
  EXPECT_EQ(windows, 2u);
}

// The stream audits report a frame source clean: the spec probes, and each
// window's plan cross-checked against Generate.
TEST_F(RequestFrameTest, VerifySourceAndStreamWindowReportClean) {
  util::Rng rng(0xC1EA);
  const RequestFrame frame = Parse(EncodeBatch(RandomScenarios(rng, 41)));
  const FrameSource source(frame);
  const verify::VerifyReport probed = verify::VerifySource(source);
  EXPECT_TRUE(probed.findings().empty()) << probed.ToString();

  core::BatchOptions options;
  options.stream_block_scenarios = 16;
  std::shared_ptr<const core::StreamPlan> stream =
      core::StreamPlan::Create(snapshot_, source, options).ValueOrDie();
  for (std::uint64_t begin = 0; begin < source.size(); begin += 16) {
    SCOPED_TRACE("window at " + std::to_string(begin));
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(16, source.size() - begin));
    LoweredScenarios window;
    ASSERT_TRUE(
        source.Lower(begin, count, snapshot_->resolver(), &window, nullptr)
            .ok());
    std::shared_ptr<const core::PlanCore> core =
        stream->PlanChunk(std::move(window), begin).ValueOrDie();
    const std::shared_ptr<const core::BatchPlan> plan =
        core::BatchPlan::FromParts(core, snapshot_->default_base_state());
    const verify::VerifyReport report =
        verify::VerifyStreamWindow(*plan, *snapshot_, source, begin);
    EXPECT_TRUE(report.findings().empty()) << report.ToString();
  }
}

// ------------------------------------------------------------ mutation fuzz

/// Words one of which every refusal names: the header fields, the scenario
/// and delta records, the delta cap, and the trailing-bytes check.
bool NamesAField(const std::string& message) {
  for (const char* field :
       {"wire version", "message type", "request id", "deadline", "scenario",
        "delta", "kMaxRequestDeltas", "trailing bytes"}) {
    if (message.find(field) != std::string::npos) return true;
  }
  return false;
}

void StoreU32(std::string* payload, std::size_t at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    (*payload)[at + static_cast<std::size_t>(i)] =
        static_cast<char>(value >> (8 * i));
  }
}

std::uint32_t LoadU32(std::string_view payload, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                 payload[at + static_cast<std::size_t>(i)]))
             << (8 * i);
  }
  return value;
}

/// The offsets of every u32 count or length field of a well-formed batch
/// payload: the scenario count, and per record its name length, its delta
/// count and each delta's variable length.
std::vector<std::size_t> CountFields(const RequestFrame& frame) {
  std::vector<std::size_t> fields = {16};
  for (std::size_t i = 0; i < frame.num_scenarios(); ++i) {
    std::size_t at = frame.records()[i];
    fields.push_back(at);
    at += 4 + LoadU32(frame.payload(), at);
    fields.push_back(at);
    const std::uint32_t deltas = LoadU32(frame.payload(), at);
    at += 4;
    for (std::uint32_t d = 0; d < deltas; ++d) {
      fields.push_back(at);
      at += 4 + LoadU32(frame.payload(), at) + 8;
    }
  }
  return fields;
}

// Bit flips, truncations, inflated counts and lengths, and duplicated names,
// applied to encoded requests. Both parsers agree on every mutant: a
// refusal is one InvalidArgument naming a field, under the same request id;
// an accepted mutant materializes to what the frame source generates,
// re-encodes to its own bytes, and lowers and names as LowerScenarios does
// over that set — or fails with the same message.
TEST_F(RequestFrameTest, MutatedFramesAreRefusedOrAgreeWithTheFrameSource) {
  util::Rng rng(0xF022);
  const core::VarResolver resolver = snapshot_->resolver();
  std::size_t refused = 0;
  std::size_t accepted = 0;
  std::size_t lowered = 0;
  for (int base = 0; base < 24; ++base) {
    // Equal-length names, so any name can overwrite another in place.
    ScenarioSet scenarios;
    const std::size_t size = 1 + static_cast<std::size_t>(rng.NextBelow(40));
    for (std::size_t i = 0; i < size; ++i) {
      char name[8];
      std::snprintf(name, sizeof(name), "n%03zu", i);
      ScenarioSet::Handle handle = scenarios.Add(name).ValueOrDie();
      const std::size_t deltas = static_cast<std::size_t>(rng.NextBelow(4));
      for (std::size_t d = 0; d < deltas; ++d) {
        handle.Set(vars_[static_cast<std::size_t>(rng.NextBelow(vars_.size()))],
                   rng.NextDoubleInRange(0.5, 1.5));
      }
    }
    const std::string pristine = EncodeBatch(scenarios, 1000 + base);
    const RequestFrame pristine_frame = Parse(pristine);
    const std::vector<std::size_t> fields = CountFields(pristine_frame);

    for (int trial = 0; trial < 160; ++trial) {
      std::string mutant = pristine;
      switch (rng.NextBelow(5)) {
        case 0: {  // Flip 1-3 bits anywhere.
          const int flips = 1 + static_cast<int>(rng.NextBelow(3));
          for (int f = 0; f < flips; ++f) {
            const std::size_t at =
                static_cast<std::size_t>(rng.NextBelow(mutant.size()));
            mutant[at] = static_cast<char>(
                mutant[at] ^ (1 << static_cast<int>(rng.NextBelow(8))));
          }
          break;
        }
        case 1:  // Truncate.
          mutant.resize(static_cast<std::size_t>(rng.NextBelow(mutant.size())));
          break;
        case 2: {  // Inflate a count or a length.
          const std::size_t at =
              fields[static_cast<std::size_t>(rng.NextBelow(fields.size()))];
          const std::uint32_t was = LoadU32(mutant, at);
          const std::uint32_t grown =
              rng.NextBool(0.5)
                  ? was + 1 + static_cast<std::uint32_t>(rng.NextBelow(64))
                  : 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.NextBelow(4));
          StoreU32(&mutant, at, grown);
          break;
        }
        case 3: {  // Duplicate a name onto another scenario.
          if (size < 2) break;
          const std::size_t from =
              static_cast<std::size_t>(rng.NextBelow(size));
          std::size_t to = static_cast<std::size_t>(rng.NextBelow(size - 1));
          if (to >= from) ++to;
          const std::string& name = scenarios.scenario(from).name;
          mutant.replace(pristine_frame.records()[to] + 4, name.size(), name);
          break;
        }
        default:  // Append a trailing byte.
          mutant.push_back(static_cast<char>(rng.NextBelow(256)));
          break;
      }

      std::uint64_t frame_id = 1;
      std::uint64_t decode_id = 2;
      util::Result<RequestFrame> frame = ParseRequest(mutant, &frame_id);
      util::Result<WireRequest> decoded = DecodeRequest(mutant, &decode_id);
      ASSERT_EQ(frame.ok(), decoded.ok());
      EXPECT_EQ(frame_id, decode_id);
      if (!frame.ok()) {
        ++refused;
        EXPECT_EQ(frame.status().code(), util::StatusCode::kInvalidArgument);
        EXPECT_EQ(frame.status().message(), decoded.status().message());
        EXPECT_TRUE(NamesAField(frame.status().message()))
            << frame.status().message();
        continue;
      }
      ++accepted;
      EXPECT_EQ(EncodeRequest(*decoded), mutant);
      EXPECT_EQ(frame->type(), decoded->type);
      EXPECT_EQ(frame->request_id(), decoded->request_id);
      EXPECT_EQ(frame->deadline_ms(), decoded->deadline_ms);
      if (frame->type() != MsgType::kAssignBatch ||
          frame->num_scenarios() == 0) {
        EXPECT_EQ(decoded->scenarios.size(), frame->num_scenarios());
        continue;
      }
      const FrameSource source(*frame);
      ScenarioSet generated;
      ASSERT_TRUE(source.Generate(0, source.size(), &generated).ok());
      ASSERT_TRUE(SameScenarios(generated, decoded->scenarios));

      LoweredScenarios want;
      const util::Status reference =
          core::LowerScenarios(decoded->scenarios.scenarios(), resolver, &want);
      LoweredScenarios got;
      std::vector<std::string> names;
      const util::Status lower =
          source.Lower(0, source.size(), resolver, &got, &names);
      ASSERT_EQ(lower.ok(), reference.ok());
      if (!lower.ok()) {
        EXPECT_EQ(lower.message(), reference.message());
        continue;
      }
      ++lowered;
      EXPECT_TRUE(SameLowered(got, want));
      EXPECT_EQ(names, decoded->scenarios.Names());
    }
  }
  // The mutations reach every outcome.
  EXPECT_GT(refused, 1000u);
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(lowered, 50u);
}

}  // namespace
}  // namespace cobra::serve

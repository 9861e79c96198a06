//===- ServerTest.cpp - frame protocol and request quarantine ------------------===//
//
// Tier-1 coverage for the compile server (docs/server.md): the framed
// wire protocol's hardening (truncation, oversized lengths, garbage,
// byte-flip sweep mirroring SerializeTest), the request codecs, and the
// in-process Server loop — structured error frames instead of process
// exits, deadline/step/memory quarantine, mid-frame disconnects, and the
// CompileService handler. Watchdog/restart *timing* lives in
// ServerSlowTest.cpp under the slow label.
//
//===----------------------------------------------------------------------===//

#include "cg/CompileService.h"
#include "support/Clock.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Frame.h"
#include "support/Json.h"
#include "support/Phase.h"
#include "support/Server.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>
#include <unistd.h>

using namespace gg;

namespace {

RequestMsg sampleRequest() {
  RequestMsg Req;
  Req.Id = 42;
  Req.DeadlineMs = 1500;
  Req.MaxSteps = 1 << 20;
  Req.MaxArenaBytes = 1 << 22;
  Req.Source = "int main() { return 7; }";
  return Req;
}

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

TEST(FrameTest, RoundTrip) {
  std::string Wire;
  appendFrame(Wire, FrameType::Request, "hello");
  appendFrame(Wire, FrameType::Ping, "");

  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  Frame F;
  ASSERT_EQ(R.next(F), FrameReader::Status::Frame);
  EXPECT_EQ(F.Type, FrameType::Request);
  EXPECT_EQ(F.Payload, "hello");
  ASSERT_EQ(R.next(F), FrameReader::Status::Frame);
  EXPECT_EQ(F.Type, FrameType::Ping);
  EXPECT_TRUE(F.Payload.empty());
  EXPECT_EQ(R.next(F), FrameReader::Status::NeedMore);
  EXPECT_EQ(R.resyncs(), 0u);
}

TEST(FrameTest, TruncatedFrameNeedsMore) {
  std::string Wire;
  appendFrame(Wire, FrameType::Request, "payload-bytes");
  // Every proper prefix is NeedMore, never Corrupt: a slow sender must
  // not be mistaken for a corrupt one.
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    FrameReader R;
    R.feed(Wire.data(), Cut);
    Frame F;
    EXPECT_EQ(R.next(F), FrameReader::Status::NeedMore) << "cut=" << Cut;
    // Feeding the rest completes the frame.
    R.feed(Wire.data() + Cut, Wire.size() - Cut);
    ASSERT_EQ(R.next(F), FrameReader::Status::Frame) << "cut=" << Cut;
    EXPECT_EQ(F.Payload, "payload-bytes");
  }
}

TEST(FrameTest, OversizedLengthIsCorruptThenResyncs) {
  // Hand-build a frame whose length field claims 1GiB: the reader must
  // reject it *before* buffering, then resync to the next good frame.
  std::string Wire = "GGF1";
  Wire.push_back(1); // Request
  uint32_t Huge = 1u << 30;
  for (int I = 0; I < 4; ++I)
    Wire.push_back(static_cast<char>((Huge >> (8 * I)) & 0xff));
  appendFrame(Wire, FrameType::Ping, "");

  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  Frame F;
  EXPECT_EQ(R.next(F), FrameReader::Status::Corrupt);
  ASSERT_EQ(R.next(F), FrameReader::Status::Frame);
  EXPECT_EQ(F.Type, FrameType::Ping);
  EXPECT_GE(R.resyncs(), 1u);
}

TEST(FrameTest, GarbageThenGoodFrameResyncs) {
  std::string Wire = "this is not a frame at all \x01\x02\x03 GGF";
  appendFrame(Wire, FrameType::Response, "ok");

  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  Frame F;
  FrameReader::Status S;
  int Corrupts = 0;
  while ((S = R.next(F)) == FrameReader::Status::Corrupt)
    ++Corrupts;
  ASSERT_EQ(S, FrameReader::Status::Frame);
  EXPECT_EQ(F.Type, FrameType::Response);
  EXPECT_EQ(F.Payload, "ok");
  EXPECT_GE(Corrupts, 1);
}

TEST(FrameTest, ChecksumRejectsPayloadTampering) {
  std::string Wire;
  appendFrame(Wire, FrameType::Request, "payload");
  Wire[9] ^= 0x01; // first payload byte
  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  Frame F;
  EXPECT_EQ(R.next(F), FrameReader::Status::Corrupt);
}

// The SerializeTest idiom applied to the wire: flip one bit at every byte
// position of a frame. The reader must never crash, never hang, and a
// clean frame appended after the tampered one must always be recovered.
TEST(FrameTest, ByteFlipSweepAlwaysRecovers) {
  std::string Tampered;
  appendFrame(Tampered, FrameType::Request, encodeRequest(sampleRequest()));
  std::string Clean;
  appendFrame(Clean, FrameType::Ping, "sentinel");

  for (size_t Pos = 0; Pos < Tampered.size(); ++Pos) {
    std::string Wire = Tampered;
    Wire[Pos] ^= 0x01;
    Wire += Clean;

    FrameReader R;
    R.feed(Wire.data(), Wire.size());
    Frame F;
    bool SawSentinel = false;
    bool PaddedOnce = false;
    for (int Spin = 0; Spin < 1024 && !SawSentinel; ++Spin) {
      FrameReader::Status S = R.next(F);
      if (S == FrameReader::Status::NeedMore) {
        // A flip in the length field can inflate the claimed frame so the
        // reader (correctly) buffers the clean frame as payload and waits.
        // Feed non-magic padding until the claimed length is satisfied:
        // the checksum then fails and resync rediscovers the sentinel
        // still sitting in the buffer.
        if (PaddedOnce)
          break;
        PaddedOnce = true;
        // Worst plausible inflation from a low-bit flip is +65536 (byte 7
        // of the header); +16MiB (byte 8) already trips the MaxFrameBytes
        // check without buffering.
        std::string Padding((1u << 17), '\xAA');
        R.feed(Padding.data(), Padding.size());
        continue;
      }
      if (S == FrameReader::Status::Corrupt)
        continue;
      if (F.Type == FrameType::Ping && F.Payload == "sentinel") {
        SawSentinel = true;
        break;
      }
      // A single-bit flip that survives the FNV-1a checksum does not
      // exist in this frame; anything else that parses must at least
      // decode without crashing.
      RequestMsg Out;
      std::string Err;
      (void)decodeRequest(F.Payload, Out, Err);
    }
    EXPECT_TRUE(SawSentinel) << "clean frame lost after flip at " << Pos;
  }
}

// A frame from a future protocol revision: well-formed on the wire
// (magic, length and checksum all valid) but with a type byte this build
// does not know. The reader must treat it as Corrupt and resync, so real
// frames on either side survive — an old server stays usable against a
// newer client instead of desyncing on the first unknown kind.
TEST(FrameTest, FutureFrameKindResyncsWithoutLosingNeighbors) {
  std::string Wire;
  appendFrame(Wire, FrameType::Request, "before");
  appendFrame(Wire, static_cast<FrameType>(12), "from the future");
  appendFrame(Wire, FrameType::Request, "between");
  appendFrame(Wire, static_cast<FrameType>(200), std::string(1000, 'z'));
  appendFrame(Wire, FrameType::Request, "after");

  FrameReader R;
  R.feed(Wire.data(), Wire.size());
  Frame F;
  std::vector<std::string> Payloads;
  int Corrupts = 0;
  for (int Spin = 0; Spin < 4096; ++Spin) {
    FrameReader::Status S = R.next(F);
    if (S == FrameReader::Status::NeedMore)
      break;
    if (S == FrameReader::Status::Corrupt) {
      ++Corrupts;
      continue;
    }
    Payloads.push_back(F.Payload);
  }
  ASSERT_EQ(Payloads.size(), 3u);
  EXPECT_EQ(Payloads[0], "before");
  EXPECT_EQ(Payloads[1], "between");
  EXPECT_EQ(Payloads[2], "after");
  EXPECT_GE(Corrupts, 2);
  EXPECT_GE(R.resyncs(), 2u);
}

//===----------------------------------------------------------------------===//
// Message codecs
//===----------------------------------------------------------------------===//

TEST(FrameTest, RequestCodecRoundTrip) {
  RequestMsg In = sampleRequest();
  std::string Wire = encodeRequest(In);
  RequestMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeRequest(Wire, Out, Err)) << Err;
  EXPECT_EQ(Out.Id, In.Id);
  EXPECT_EQ(Out.DeadlineMs, In.DeadlineMs);
  EXPECT_EQ(Out.MaxSteps, In.MaxSteps);
  EXPECT_EQ(Out.MaxArenaBytes, In.MaxArenaBytes);
  EXPECT_EQ(Out.Source, In.Source);
}

TEST(FrameTest, RequestCodecRejectsEveryTruncation) {
  std::string Wire = encodeRequest(sampleRequest());
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    RequestMsg Out;
    std::string Err;
    EXPECT_FALSE(decodeRequest(Wire.substr(0, Cut), Out, Err))
        << "cut=" << Cut;
    EXPECT_FALSE(Err.empty()) << "cut=" << Cut;
  }
  // Trailing garbage is rejected too: a decoder that silently ignores
  // extra bytes hides framing bugs.
  RequestMsg Out;
  std::string Err;
  EXPECT_FALSE(decodeRequest(Wire + "x", Out, Err));
}

TEST(FrameTest, ResponseCodecRoundTripAndTruncation) {
  ResponseMsg In;
  In.Id = 9;
  In.Status = ResponseStatus::StepBudget;
  In.BlockedTrees = 3;
  In.RecoveredTrees = 2;
  In.Generation = 11;
  In.Payload = "diagnostic text";
  std::string Wire = encodeResponse(In);
  ResponseMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeResponse(Wire, Out, Err)) << Err;
  EXPECT_EQ(Out.Id, In.Id);
  EXPECT_EQ(Out.Status, ResponseStatus::StepBudget);
  EXPECT_EQ(Out.BlockedTrees, 3u);
  EXPECT_EQ(Out.RecoveredTrees, 2u);
  EXPECT_EQ(Out.Generation, 11u);
  EXPECT_EQ(Out.Payload, In.Payload);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    ResponseMsg T;
    EXPECT_FALSE(decodeResponse(Wire.substr(0, Cut), T, Err)) << "cut=" << Cut;
  }
}

TEST(FrameTest, OverloadCodecRoundTripAndTruncation) {
  OverloadMsg In;
  In.Id = 77;
  In.RetryAfterMs = 250;
  In.QueueDepth = 12;
  In.Cause = OverloadCause::ShedOldest;
  std::string Wire = encodeOverload(In);
  OverloadMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeOverload(Wire, Out, Err)) << Err;
  EXPECT_EQ(Out.Id, 77u);
  EXPECT_EQ(Out.RetryAfterMs, 250u);
  EXPECT_EQ(Out.QueueDepth, 12u);
  EXPECT_EQ(Out.Cause, OverloadCause::ShedOldest);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    OverloadMsg T;
    EXPECT_FALSE(decodeOverload(Wire.substr(0, Cut), T, Err)) << "cut=" << Cut;
  }
  // Trailing garbage and out-of-range causes are rejected, not ignored.
  OverloadMsg T;
  EXPECT_FALSE(decodeOverload(Wire + "x", T, Err));
  std::string BadCause = Wire;
  BadCause.back() = '\x7f';
  EXPECT_FALSE(decodeOverload(BadCause, T, Err));
  EXPECT_STREQ(overloadCauseName(OverloadCause::QueueFull), "queue-full");
  EXPECT_STREQ(overloadCauseName(OverloadCause::Draining), "draining");
}

TEST(FrameTest, ReloadedCodecRoundTripAndTruncation) {
  ReloadedMsg In;
  In.Generation = 4;
  In.Ok = 0;
  In.Text = "table self-verification failed";
  std::string Wire = encodeReloaded(In);
  ReloadedMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeReloaded(Wire, Out, Err)) << Err;
  EXPECT_EQ(Out.Generation, 4u);
  EXPECT_EQ(Out.Ok, 0u);
  EXPECT_EQ(Out.Text, In.Text);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    ReloadedMsg T;
    EXPECT_FALSE(decodeReloaded(Wire.substr(0, Cut), T, Err)) << "cut=" << Cut;
  }
  ReloadedMsg T;
  EXPECT_FALSE(decodeReloaded(Wire + "x", T, Err));
}

TEST(FrameTest, StatusCodecRoundTripAndTruncation) {
  StatusMsg In;
  In.Id = 0x1122334455667788ull;
  std::string Wire = encodeStatus(In);
  StatusMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeStatus(Wire, Out, Err)) << Err;
  EXPECT_EQ(Out.Id, In.Id);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    StatusMsg T;
    EXPECT_FALSE(decodeStatus(Wire.substr(0, Cut), T, Err)) << "cut=" << Cut;
    EXPECT_FALSE(Err.empty()) << "cut=" << Cut;
  }
  StatusMsg T;
  EXPECT_FALSE(decodeStatus(Wire + "x", T, Err));
}

TEST(FrameTest, StatusReplyCodecRoundTripAndTruncation) {
  StatusReplyMsg In;
  In.Id = 9090;
  In.Text = "{\"schema\":\"gg-status-v1\",\"queue_depth\":0}";
  std::string Wire = encodeStatusReply(In);
  StatusReplyMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeStatusReply(Wire, Out, Err)) << Err;
  EXPECT_EQ(Out.Id, 9090u);
  EXPECT_EQ(Out.Text, In.Text);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    StatusReplyMsg T;
    EXPECT_FALSE(decodeStatusReply(Wire.substr(0, Cut), T, Err))
        << "cut=" << Cut;
  }
  // Trailing garbage and an empty snapshot: the former is rejected, the
  // latter is legal (the length prefix makes it unambiguous).
  StatusReplyMsg T;
  EXPECT_FALSE(decodeStatusReply(Wire + "x", T, Err));
  StatusReplyMsg Empty;
  Empty.Id = 1;
  std::string EmptyWire = encodeStatusReply(Empty);
  StatusReplyMsg EmptyOut;
  ASSERT_TRUE(decodeStatusReply(EmptyWire, EmptyOut, Err)) << Err;
  EXPECT_EQ(EmptyOut.Id, 1u);
  EXPECT_TRUE(EmptyOut.Text.empty());
}

//===----------------------------------------------------------------------===//
// Server loop over pipes
//===----------------------------------------------------------------------===//

/// Runs a Server over pipe fds: the test writes frames into the input
/// pipe, the server's responses accumulate in the output pipe (small
/// enough to fit the pipe buffer), and closing the input end shuts the
/// server down.
struct PipeHarness {
  int In[2];  ///< test writes In[1], server reads In[0]
  int Out[2]; ///< server writes Out[1], test reads Out[0]
  std::unique_ptr<Server> Srv; ///< lets tests drive drain/reload directly
  std::thread T;
  int ExitCode = -1;
  std::vector<OverloadMsg> Overloads;        ///< filled by finish()
  std::vector<ReloadedMsg> Reloads;          ///< filled by finish()
  std::vector<StatusReplyMsg> StatusReplies; ///< filled by finish()

  explicit PipeHarness(CompileHandler H, ServerOptions Opts = {}) {
    EXPECT_EQ(pipe(In), 0);
    EXPECT_EQ(pipe(Out), 0);
    Srv = std::make_unique<Server>(std::move(H), Opts);
    T = std::thread([this] { ExitCode = Srv->serveFds(In[0], Out[1]); });
  }

  void send(FrameType Type, const std::string &Payload) {
    std::string Wire;
    appendFrame(Wire, Type, Payload);
    sendRaw(Wire);
  }

  void sendRaw(const std::string &Wire) {
    ASSERT_EQ(write(In[1], Wire.data(), Wire.size()),
              static_cast<ssize_t>(Wire.size()));
  }

  void sendRequest(uint64_t Id, const std::string &Source,
                   uint64_t DeadlineMs = NoDeadlineSentinel,
                   uint64_t MaxSteps = 0, uint64_t MaxArenaBytes = 0) {
    RequestMsg Req;
    Req.Id = Id;
    Req.DeadlineMs = DeadlineMs;
    Req.MaxSteps = MaxSteps;
    Req.MaxArenaBytes = MaxArenaBytes;
    Req.Source = Source;
    send(FrameType::Request, encodeRequest(Req));
  }

  /// Ends the stream and collects every response the server wrote.
  std::vector<ResponseMsg> finish(bool SendShutdown = true) {
    if (SendShutdown)
      send(FrameType::Shutdown, "");
    close(In[1]);
    T.join();
    close(Out[1]); // ours; lets the reader hit EOF
    std::vector<ResponseMsg> Responses;
    FrameReader R;
    char Buf[4096];
    ssize_t N;
    while ((N = read(Out[0], Buf, sizeof(Buf))) > 0)
      R.feed(Buf, static_cast<size_t>(N));
    Frame F;
    while (R.next(F) == FrameReader::Status::Frame) {
      std::string Err;
      if (F.Type == FrameType::Response) {
        ResponseMsg M;
        if (decodeResponse(F.Payload, M, Err))
          Responses.push_back(std::move(M));
      } else if (F.Type == FrameType::Overloaded) {
        OverloadMsg M;
        if (decodeOverload(F.Payload, M, Err))
          Overloads.push_back(M);
      } else if (F.Type == FrameType::Reloaded) {
        ReloadedMsg M;
        if (decodeReloaded(F.Payload, M, Err))
          Reloads.push_back(std::move(M));
      } else if (F.Type == FrameType::StatusReply) {
        StatusReplyMsg M;
        if (decodeStatusReply(F.Payload, M, Err))
          StatusReplies.push_back(std::move(M));
      }
    }
    close(In[0]);
    close(Out[0]);
    return Responses;
  }

  /// "No deadline" request value (0 would mean "use the server default").
  static constexpr uint64_t NoDeadlineSentinel = 0xffffffffull;
};

const ResponseMsg *findById(const std::vector<ResponseMsg> &Rs, uint64_t Id) {
  for (const ResponseMsg &R : Rs)
    if (R.Id == Id)
      return &R;
  return nullptr;
}

const OverloadMsg *findOverload(const std::vector<OverloadMsg> &Os,
                                uint64_t Id) {
  for (const OverloadMsg &O : Os)
    if (O.Id == Id)
      return &O;
  return nullptr;
}

/// Spins (bounded, ~5s) until \p Pred holds. Stats counters are
/// process-wide and cumulative across the test binary, so tests capture a
/// baseline first and wait for strict growth — that makes the sequencing
/// deterministic without trusting sleeps.
bool spinUntil(const std::function<bool()> &Pred) {
  for (int I = 0; I < 5000; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Pred();
}

TEST(ServerTest, ServesRequestsAndShutsDownCleanly) {
  ServerOptions Opts;
  Opts.Workers = 2;
  PipeHarness H(
      [](const RequestMsg &Req, RequestBudget &) {
        HandlerResult R;
        R.Payload = "asm:" + Req.Source;
        return R;
      },
      Opts);
  H.sendRequest(1, "aaa");
  H.sendRequest(2, "bbb");
  H.sendRequest(3, "ccc");
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_EQ(Rs.size(), 3u);
  for (uint64_t Id = 1; Id <= 3; ++Id) {
    const ResponseMsg *R = findById(Rs, Id);
    ASSERT_NE(R, nullptr) << "id " << Id;
    EXPECT_EQ(R->Status, ResponseStatus::Ok);
  }
  EXPECT_EQ(findById(Rs, 2)->Payload, "asm:bbb");
}

TEST(ServerTest, ThrowingHandlerBecomesErrorFrameNotExit) {
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [](const RequestMsg &Req, RequestBudget &) -> HandlerResult {
        if (Req.Source == "boom")
          throw std::runtime_error("handler bug");
        HandlerResult R;
        R.Payload = "fine";
        return R;
      },
      Opts);
  H.sendRequest(1, "boom");
  H.sendRequest(2, "ok");
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  const ResponseMsg *Bad = findById(Rs, 1);
  ASSERT_NE(Bad, nullptr);
  EXPECT_EQ(Bad->Status, ResponseStatus::CompileError);
  // The request after the throw is served normally: quarantine, not death.
  const ResponseMsg *Good = findById(Rs, 2);
  ASSERT_NE(Good, nullptr);
  EXPECT_EQ(Good->Status, ResponseStatus::Ok);
  EXPECT_EQ(Good->Payload, "fine");
}

TEST(ServerTest, GarbageBytesQuarantinedAsProtocolError) {
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [](const RequestMsg &, RequestBudget &) {
        HandlerResult R;
        R.Payload = "served";
        return R;
      },
      Opts);
  H.sendRaw("complete nonsense that is definitely not a frame");
  H.sendRequest(7, "after-garbage");
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  // The garbage produced a Protocol error frame (id 0), and the real
  // request after it was still served.
  const ResponseMsg *Proto = findById(Rs, 0);
  ASSERT_NE(Proto, nullptr);
  EXPECT_EQ(Proto->Status, ResponseStatus::Protocol);
  const ResponseMsg *Real = findById(Rs, 7);
  ASSERT_NE(Real, nullptr);
  EXPECT_EQ(Real->Status, ResponseStatus::Ok);
}

TEST(ServerTest, UndecodableRequestPayloadIsProtocolError) {
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [](const RequestMsg &, RequestBudget &) { return HandlerResult{}; },
      Opts);
  // A valid frame whose Request payload is truncated garbage.
  H.send(FrameType::Request, "\x01\x02\x03");
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_EQ(Rs[0].Status, ResponseStatus::Protocol);
}

TEST(ServerTest, MidFrameDisconnectShutsDownCleanly) {
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [](const RequestMsg &, RequestBudget &) { return HandlerResult{}; },
      Opts);
  // Half a frame, then EOF: the reader must not spin or crash, and the
  // server must still exit 0 (a client dying is a recoverable event).
  std::string Wire;
  appendFrame(Wire, FrameType::Request, encodeRequest(sampleRequest()));
  H.sendRaw(Wire.substr(0, Wire.size() / 2));
  std::vector<ResponseMsg> Rs = H.finish(/*SendShutdown=*/false);
  EXPECT_EQ(H.ExitCode, ExitOk);
  EXPECT_TRUE(Rs.empty());
}

TEST(ServerTest, DeadlineQuarantinesOnlyTheSlowRequest) {
  ServerOptions Opts;
  Opts.Workers = 2;
  PipeHarness H(
      [](const RequestMsg &Req, RequestBudget &B) {
        HandlerResult R;
        if (Req.Source == "slow") {
          // Cooperative worker: poll the budget like the matcher does.
          while (!B.shouldStop(0))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          R.Status = ResponseStatus::Deadline;
          R.Payload = "deadline exceeded";
          return R;
        }
        R.Payload = "fast";
        return R;
      },
      Opts);
  H.sendRequest(1, "slow", /*DeadlineMs=*/30);
  H.sendRequest(2, "fast");
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  const ResponseMsg *Slow = findById(Rs, 1);
  ASSERT_NE(Slow, nullptr);
  EXPECT_EQ(Slow->Status, ResponseStatus::Deadline);
  const ResponseMsg *Fast = findById(Rs, 2);
  ASSERT_NE(Fast, nullptr);
  EXPECT_EQ(Fast->Status, ResponseStatus::Ok);
}

TEST(ServerTest, StepBudgetArmsTheBudgetObject) {
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [](const RequestMsg &, RequestBudget &B) {
        HandlerResult R;
        B.StepsUsed.fetch_add(500, std::memory_order_relaxed);
        if (B.shouldStop(0)) {
          R.Status = ResponseStatus::StepBudget;
          return R;
        }
        R.Payload = "ran to completion";
        return R;
      },
      Opts);
  H.sendRequest(1, "x", PipeHarness::NoDeadlineSentinel, /*MaxSteps=*/100);
  H.sendRequest(2, "y", PipeHarness::NoDeadlineSentinel, /*MaxSteps=*/1000);
  std::vector<ResponseMsg> Rs = H.finish();
  const ResponseMsg *Over = findById(Rs, 1);
  ASSERT_NE(Over, nullptr);
  EXPECT_EQ(Over->Status, ResponseStatus::StepBudget);
  const ResponseMsg *Under = findById(Rs, 2);
  ASSERT_NE(Under, nullptr);
  EXPECT_EQ(Under->Status, ResponseStatus::Ok);
}

//===----------------------------------------------------------------------===//
// Admission control, backpressure, drain, reload
//===----------------------------------------------------------------------===//

/// A handler whose "gate" requests spin until the process-wide overloaded
/// counter grows past \p Baseline — the test can therefore hold one worker
/// busy, build queue state behind it, trigger a shed, and only then let
/// the held work complete. Everything else is answered immediately.
CompileHandler gateOnOverload(uint64_t Baseline) {
  return [Baseline](const RequestMsg &Req, RequestBudget &) {
    if (Req.Source == "gate")
      spinUntil([Baseline] {
        return stats().counter("server.overloaded").load(
                   std::memory_order_relaxed) > Baseline;
      });
    HandlerResult R;
    R.Payload = "served:" + Req.Source;
    return R;
  };
}

TEST(ServerTest, QueueFullRejectsNewestByDefault) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  uint64_t BaseOver = Reg.counter("server.overloaded").load();
  uint64_t BaseShed = Reg.counter("server.shed_queue_full").load();
  uint64_t BaseDepth = Reg.histogram("server.queue_depth").count();

  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxQueueDepth = 1;
  PipeHarness H(gateOnOverload(BaseOver), Opts);

  H.sendRequest(1, "gate");
  // The gate must be *executing* (not queued) before we build the backlog,
  // or the shed victim would be timing-dependent.
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));
  H.sendRequest(2, "b");
  ASSERT_TRUE(spinUntil([&] {
    return Reg.histogram("server.queue_depth").count() >= BaseDepth + 2;
  }));
  H.sendRequest(3, "c"); // queue holds {2}: full, newest is rejected

  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 1), nullptr);
  ASSERT_NE(findById(Rs, 2), nullptr);
  EXPECT_EQ(findById(Rs, 2)->Payload, "served:b");
  EXPECT_EQ(findById(Rs, 3), nullptr);
  const OverloadMsg *O = findOverload(H.Overloads, 3);
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->Cause, OverloadCause::QueueFull);
  EXPECT_GE(O->RetryAfterMs, 1u);
  EXPECT_EQ(Reg.counter("server.shed_queue_full").load(), BaseShed + 1);
}

TEST(ServerTest, ShedOldestPolicyEvictsQueueHead) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  uint64_t BaseOver = Reg.counter("server.overloaded").load();
  uint64_t BaseDepth = Reg.histogram("server.queue_depth").count();

  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxQueueDepth = 1;
  Opts.Shed = ShedPolicy::ShedOldest;
  PipeHarness H(gateOnOverload(BaseOver), Opts);

  H.sendRequest(1, "gate");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));
  H.sendRequest(2, "old");
  ASSERT_TRUE(spinUntil([&] {
    return Reg.histogram("server.queue_depth").count() >= BaseDepth + 2;
  }));
  H.sendRequest(3, "new"); // displaces 2: freshest work keeps its slot

  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 1), nullptr);
  EXPECT_EQ(findById(Rs, 2), nullptr);
  ASSERT_NE(findById(Rs, 3), nullptr);
  EXPECT_EQ(findById(Rs, 3)->Payload, "served:new");
  const OverloadMsg *O = findOverload(H.Overloads, 2);
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->Cause, OverloadCause::ShedOldest);
}

TEST(ServerTest, AdmissionDeadlineRejectsDoomedRequest) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  uint64_t BaseOver = Reg.counter("server.overloaded").load();
  uint64_t BaseDepth = Reg.histogram("server.queue_depth").count();

  ServerOptions Opts;
  Opts.Workers = 1;
  // The estimate floor pins the per-request service estimate at 100ms, so
  // rejection does not depend on a live EWMA warm-up.
  Opts.AdmissionEstimateFloorMs = 100;
  PipeHarness H(gateOnOverload(BaseOver), Opts);

  H.sendRequest(1, "gate");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));
  // A second no-deadline gate keeps queue depth at 1 (depth 0 estimates a
  // zero wait, which always admits).
  H.sendRequest(2, "gate");
  ASSERT_TRUE(spinUntil([&] {
    return Reg.histogram("server.queue_depth").count() >= BaseDepth + 2;
  }));
  // 50ms of deadline cannot survive an estimated 100ms queue wait: shed at
  // admission, in O(RTT) instead of O(deadline).
  H.sendRequest(3, "doomed", /*DeadlineMs=*/50);

  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 1), nullptr);
  ASSERT_NE(findById(Rs, 2), nullptr);
  EXPECT_EQ(findById(Rs, 3), nullptr);
  const OverloadMsg *O = findOverload(H.Overloads, 3);
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->Cause, OverloadCause::AdmissionDeadline);
  // Retry-after reflects the estimated backlog: exactly the 100ms floor
  // here (the EWMA is still cold — the gates have not completed).
  EXPECT_EQ(O->RetryAfterMs, 100u);
}

TEST(ServerTest, QueueDeadlineShedsStaleQueuedRequest) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  uint64_t BaseShed = Reg.counter("server.shed_queue_deadline").load();
  uint64_t BaseDepth = Reg.histogram("server.queue_depth").count();

  std::atomic<bool> Release{false};
  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.QueueDeadlineMs = 100;
  PipeHarness H(
      [&Release](const RequestMsg &Req, RequestBudget &) {
        if (Req.Source == "gate")
          spinUntil([&Release] { return Release.load(); });
        HandlerResult R;
        R.Payload = "served";
        return R;
      },
      Opts);

  H.sendRequest(1, "gate");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));
  H.sendRequest(2, "stale");
  ASSERT_TRUE(spinUntil([&] {
    return Reg.histogram("server.queue_depth").count() >= BaseDepth + 2;
  }));
  // Hold the worker past the queueing deadline, then let it pop: request 2
  // has been queued ~150ms > 100ms, so it is shed instead of served.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Release.store(true);

  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 1), nullptr);
  EXPECT_EQ(findById(Rs, 2), nullptr);
  const OverloadMsg *O = findOverload(H.Overloads, 2);
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->Cause, OverloadCause::QueueDeadline);
  EXPECT_EQ(Reg.counter("server.shed_queue_deadline").load(), BaseShed + 1);
}

TEST(ServerTest, DrainCompletesQueuedWorkThenExitsCleanly) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  uint64_t BaseDrains = Reg.counter("server.drains").load();
  uint64_t BaseDepth = Reg.histogram("server.queue_depth").count();

  std::atomic<bool> Release{false};
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [&Release](const RequestMsg &Req, RequestBudget &) {
        if (Req.Source == "gate")
          spinUntil([&Release] { return Release.load(); });
        HandlerResult R;
        R.Payload = "served:" + Req.Source;
        return R;
      },
      Opts);

  H.sendRequest(1, "gate");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));
  H.sendRequest(2, "queued");
  ASSERT_TRUE(spinUntil([&] {
    return Reg.histogram("server.queue_depth").count() >= BaseDepth + 2;
  }));
  // Drain with one request executing and one queued: both must still be
  // answered — a graceful drain sheds *admissions*, not accepted work.
  H.Srv->requestDrain();
  Release.store(true);

  std::vector<ResponseMsg> Rs = H.finish(/*SendShutdown=*/false);
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 1), nullptr);
  ASSERT_NE(findById(Rs, 2), nullptr);
  EXPECT_EQ(findById(Rs, 2)->Payload, "served:queued");
  EXPECT_TRUE(H.Overloads.empty());
  EXPECT_EQ(Reg.counter("server.drains").load(), BaseDrains + 1);
}

TEST(ServerTest, DrainDeadlineShedsLeftoverQueueAndCancelsInFlight) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  uint64_t BaseShed = Reg.counter("server.shed_draining").load();
  uint64_t BaseDepth = Reg.histogram("server.queue_depth").count();

  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.DrainDeadlineMs = 60;
  Opts.WatchdogIntervalMs = 5;
  PipeHarness H(
      [](const RequestMsg &Req, RequestBudget &B) {
        HandlerResult R;
        if (Req.Source == "wedge") {
          // Cooperative but endless until cancelled: the drain deadline is
          // what releases it.
          spinUntil([&B] { return B.shouldStop(0); });
          R.Payload = "cancelled";
          return R;
        }
        R.Payload = "served";
        return R;
      },
      Opts);

  H.sendRequest(1, "wedge");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));
  H.sendRequest(2, "stuck-behind");
  ASSERT_TRUE(spinUntil([&] {
    return Reg.histogram("server.queue_depth").count() >= BaseDepth + 2;
  }));
  H.Srv->requestDrain();
  // Past DrainDeadlineMs the watchdog stops being graceful: the queued
  // request is shed with Overloaded(draining) and the in-flight budget is
  // cancelled, so the server still exits instead of hanging forever.
  std::vector<ResponseMsg> Rs = H.finish(/*SendShutdown=*/false);
  EXPECT_EQ(H.ExitCode, ExitOk);
  const ResponseMsg *Wedged = findById(Rs, 1);
  ASSERT_NE(Wedged, nullptr);
  EXPECT_EQ(Wedged->Payload, "cancelled");
  EXPECT_EQ(findById(Rs, 2), nullptr);
  const OverloadMsg *O = findOverload(H.Overloads, 2);
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->Cause, OverloadCause::Draining);
  // During a drain the retry-after points at the supervisor's restart
  // horizon, not the (now meaningless) queue estimate.
  EXPECT_EQ(O->RetryAfterMs, 1000u);
  EXPECT_EQ(Reg.counter("server.shed_draining").load(), BaseShed + 1);
}

TEST(ServerTest, ReloadFrameSwapsGenerationAndAcks) {
  StatsRegistry &Reg = stats();
  uint64_t BaseOk = Reg.counter("server.ok").load();
  uint64_t BaseReloads = Reg.counter("server.reloads").load();
  uint64_t BaseFails = Reg.counter("server.reload_failures").load();

  std::atomic<uint64_t> Gen{1};
  std::atomic<bool> FailNext{false};
  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.WatchdogIntervalMs = 5;
  PipeHarness H(
      [&Gen](const RequestMsg &, RequestBudget &) {
        HandlerResult R;
        R.Generation = Gen.load();
        R.Payload = "g";
        return R;
      },
      Opts);
  H.Srv->setReloader([&Gen, &FailNext](uint64_t &NewG, std::string &Err) {
    if (FailNext.load()) {
      NewG = Gen.load(); // failed reload keeps serving the old generation
      Err = "forced reload failure";
      return false;
    }
    NewG = Gen.fetch_add(1) + 1;
    return true;
  });

  // Serialize request / reload / request through the stats counters so the
  // generation each response observes is deterministic.
  H.sendRequest(1, "a");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.ok").load() >= BaseOk + 1; }));
  H.send(FrameType::Reload, "");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.reloads").load() > BaseReloads; }));
  H.sendRequest(2, "b");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.ok").load() >= BaseOk + 2; }));
  FailNext.store(true);
  H.send(FrameType::Reload, "");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.reload_failures").load() > BaseFails; }));
  H.sendRequest(3, "c");

  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 1), nullptr);
  ASSERT_NE(findById(Rs, 2), nullptr);
  ASSERT_NE(findById(Rs, 3), nullptr);
  EXPECT_EQ(findById(Rs, 1)->Generation, 1u);
  EXPECT_EQ(findById(Rs, 2)->Generation, 2u);
  EXPECT_EQ(findById(Rs, 3)->Generation, 2u); // failed reload: unchanged
  ASSERT_EQ(H.Reloads.size(), 2u);
  EXPECT_EQ(H.Reloads[0].Ok, 1u);
  EXPECT_EQ(H.Reloads[0].Generation, 2u);
  EXPECT_EQ(H.Reloads[1].Ok, 0u);
  EXPECT_EQ(H.Reloads[1].Generation, 2u);
  EXPECT_NE(H.Reloads[1].Text.find("forced reload failure"),
            std::string::npos);
}

TEST(ServerTest, ReloadWithoutReloaderAcksFailure) {
  ServerOptions Opts;
  Opts.Workers = 1;
  Opts.WatchdogIntervalMs = 5;
  uint64_t BaseFails = stats().counter("server.reload_failures").load();
  PipeHarness H(
      [](const RequestMsg &, RequestBudget &) { return HandlerResult{}; },
      Opts);
  H.send(FrameType::Reload, "");
  ASSERT_TRUE(spinUntil([&] {
    return stats().counter("server.reload_failures").load() > BaseFails;
  }));
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_EQ(H.Reloads.size(), 1u);
  EXPECT_EQ(H.Reloads[0].Ok, 0u);
  EXPECT_NE(H.Reloads[0].Text.find("no reloader"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Live introspection: Status frames and statusJson
//===----------------------------------------------------------------------===//

TEST(ServerTest, FutureFrameKindQuarantinedAsProtocolError) {
  // A checksum-valid frame with a type byte from a future protocol
  // revision (>= 12) interleaved with real requests: the server must
  // answer it with a structured Protocol error and keep serving — the
  // stream does not desync.
  uint64_t BaseResyncs = stats().counter("server.resyncs").load();
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [](const RequestMsg &Req, RequestBudget &) {
        HandlerResult R;
        R.Payload = "served:" + Req.Source;
        return R;
      },
      Opts);
  H.sendRequest(1, "first");
  std::string Forged;
  appendFrame(Forged, static_cast<FrameType>(12), "future frame kind");
  H.sendRaw(Forged);
  H.sendRequest(2, "second");
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  const ResponseMsg *First = findById(Rs, 1);
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Status, ResponseStatus::Ok);
  const ResponseMsg *Second = findById(Rs, 2);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(Second->Status, ResponseStatus::Ok);
  EXPECT_EQ(Second->Payload, "served:second");
  // The unknown kind produced a Protocol error frame (id 0) naming it.
  const ResponseMsg *Proto = findById(Rs, 0);
  ASSERT_NE(Proto, nullptr);
  EXPECT_EQ(Proto->Status, ResponseStatus::Protocol);
  EXPECT_NE(Proto->Payload.find("unknown frame type"), std::string::npos);
  EXPECT_GT(stats().counter("server.resyncs").load(), BaseResyncs);
}

TEST(ServerTest, StatusProbeReturnsLiveSnapshot) {
  StatsRegistry &Reg = stats();
  uint64_t BaseOk = Reg.counter("server.ok").load();
  ServerOptions Opts;
  Opts.Workers = 2;
  PipeHarness H(
      [](const RequestMsg &, RequestBudget &) {
        HandlerResult R;
        R.Payload = "ok";
        return R;
      },
      Opts);
  H.sendRequest(1, "warm");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.ok").load() > BaseOk; }));

  StatusMsg SM;
  SM.Id = 7777;
  H.send(FrameType::Status, encodeStatus(SM));
  // A malformed probe payload is a protocol error, not a desync.
  H.send(FrameType::Status, "\x01");

  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_EQ(H.StatusReplies.size(), 1u);
  EXPECT_EQ(H.StatusReplies[0].Id, 7777u);

  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(H.StatusReplies[0].Text, V, Err))
      << Err << "\n" << H.StatusReplies[0].Text;
  const JsonValue *Schema = V.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Str, "gg-status-v1");
  EXPECT_EQ(V.numberOr("workers"), 2);
  const JsonValue *InFlight = V.find("in_flight");
  ASSERT_NE(InFlight, nullptr);
  EXPECT_TRUE(InFlight->isArray());
  const JsonValue *Window = V.find("window");
  ASSERT_NE(Window, nullptr);
  EXPECT_GE(Window->numberOr("requests"), 1.0)
      << "the warm request is inside the 10s window";
  const JsonValue *Counters = V.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GE(Counters->numberOr("requests"), 1.0);
  EXPECT_GE(Counters->numberOr("ok"), 1.0);

  const ResponseMsg *Proto = findById(Rs, 0);
  ASSERT_NE(Proto, nullptr);
  EXPECT_EQ(Proto->Status, ResponseStatus::Protocol);
  EXPECT_NE(Proto->Payload.find("status"), std::string::npos);
}

TEST(ServerTest, StatusJsonReportsInFlightAndDraining) {
  StatsRegistry &Reg = stats();
  uint64_t BaseReq = Reg.counter("server.requests").load();
  std::atomic<bool> Release{false};
  ServerOptions Opts;
  Opts.Workers = 1;
  PipeHarness H(
      [&Release](const RequestMsg &Req, RequestBudget &) {
        if (Req.Source == "gate")
          spinUntil([&Release] { return Release.load(); });
        HandlerResult R;
        R.Payload = "served";
        return R;
      },
      Opts);

  auto Snapshot = [&](JsonValue &V) {
    std::string Err;
    std::string Json = H.Srv->statusJson();
    ASSERT_TRUE(parseJson(Json, V, Err)) << Err << "\n" << Json;
  };

  H.sendRequest(4242, "gate");
  ASSERT_TRUE(spinUntil(
      [&] { return Reg.counter("server.requests").load() > BaseReq; }));

  // The gate is executing: the snapshot names it, with an age and phase.
  JsonValue Busy;
  Snapshot(Busy);
  EXPECT_EQ(Busy.numberOr("executing"), 1);
  EXPECT_EQ(Busy.numberOr("draining"), 0);
  const JsonValue *InFlight = Busy.find("in_flight");
  ASSERT_NE(InFlight, nullptr);
  ASSERT_EQ(InFlight->Arr.size(), 1u);
  EXPECT_EQ(InFlight->Arr[0].numberOr("id"), 4242);
  const JsonValue *Phase = InFlight->Arr[0].find("phase");
  ASSERT_NE(Phase, nullptr);
  EXPECT_TRUE(Phase->isString());
  EXPECT_FALSE(Phase->Str.empty());

  // A drain flips the draining flag in the next snapshot.
  H.Srv->requestDrain();
  ASSERT_TRUE(spinUntil([&] {
    JsonValue V;
    std::string Err;
    return parseJson(H.Srv->statusJson(), V, Err) &&
           V.numberOr("draining") == 1;
  }));
  Release.store(true);

  std::vector<ResponseMsg> Rs = H.finish(/*SendShutdown=*/false);
  EXPECT_EQ(H.ExitCode, ExitOk);
  ASSERT_NE(findById(Rs, 4242), nullptr);
  EXPECT_EQ(findById(Rs, 4242)->Status, ResponseStatus::Ok);
}

//===----------------------------------------------------------------------===//
// Server loop over a Unix socket: connection lifetime
//===----------------------------------------------------------------------===//

constexpr uint64_t FiveSecondsNs = 5'000'000'000ull;

/// Runs a Server on a Unix socket on its own thread; clients connect with
/// FrameClient. The destructor shuts a still-running server down.
struct SocketHarness {
  std::string Path;
  std::unique_ptr<Server> Srv;
  std::thread T;
  int ExitCode = -1;

  explicit SocketHarness(CompileHandler H, ServerOptions Opts = {}) {
    static std::atomic<int> Seq{0};
    Path = testing::TempDir() + "gg-server-" + std::to_string(getpid()) +
           "-" + std::to_string(Seq++) + ".sock";
    Srv = std::make_unique<Server>(std::move(H), Opts);
    T = std::thread([this] { ExitCode = Srv->serveUnixSocket(Path); });
  }

  ~SocketHarness() {
    if (!T.joinable())
      return;
    FrameClient C;
    if (C.connect(Path, {.Tries = 8, .MaxDelayMs = 100}))
      C.send(FrameType::Shutdown, "");
    T.join();
  }

  /// Connects \p C and waits for the answer to a Ping, so the server has
  /// taken the connection.
  bool connect(FrameClient &C) {
    Frame F;
    return C.connect(Path, {.Tries = 50, .MaxDelayMs = 100}) &&
           C.send(FrameType::Ping, "hi") &&
           C.next(F, monoNowNs() + FiveSecondsNs) ==
               FrameClient::Read::Frame &&
           F.Type == FrameType::Pong;
  }
};

HandlerResult echoHandler(const RequestMsg &Req, RequestBudget &) {
  HandlerResult R;
  R.Payload = "asm:" + Req.Source;
  return R;
}

size_t openFds() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator()));
}

TEST(ServerSocketTest, ClosedConnectionsReleaseTheirFds) {
  ServerOptions Opts;
  Opts.Workers = 1;
  SocketHarness H(echoHandler, Opts);
  FrameClient Probe;
  ASSERT_TRUE(H.connect(Probe));
  const size_t Before = openFds();
  for (int I = 0; I < 64; ++I) {
    FrameClient C;
    ASSERT_TRUE(H.connect(C)) << "cycle " << I;
  }
  // The server closes its end once it reads the client's EOF: wait for it.
  EXPECT_TRUE(spinUntil([&] { return openFds() <= Before + 2; }))
      << "open fds: " << openFds() << ", before the cycles: " << Before;

  StatusMsg SM;
  SM.Id = 64;
  ASSERT_TRUE(Probe.send(FrameType::Status, encodeStatus(SM)));
  Frame F;
  ASSERT_EQ(Probe.next(F, monoNowNs() + FiveSecondsNs),
            FrameClient::Read::Frame);
  EXPECT_EQ(F.Type, FrameType::StatusReply);
}

TEST(ServerSocketTest, ShutdownFrameEndsServingAndDropsOtherConnections) {
  SocketHarness H(echoHandler);
  FrameClient A, B;
  ASSERT_TRUE(H.connect(A));
  ASSERT_TRUE(H.connect(B));
  ASSERT_TRUE(A.send(FrameType::Shutdown, ""));
  H.T.join();
  EXPECT_EQ(H.ExitCode, ExitOk);
  Frame F;
  EXPECT_EQ(B.next(F, monoNowNs() + FiveSecondsNs), FrameClient::Read::Lost);
  EXPECT_FALSE(B.connected());
}

TEST(ServerSocketTest, DeadlineReadTimesOutThenGetsTheReply) {
  std::atomic<bool> Release{false};
  SocketHarness H([&](const RequestMsg &Req, RequestBudget &B) {
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return echoHandler(Req, B);
  });
  FrameClient C;
  ASSERT_TRUE(H.connect(C));
  RequestMsg Req;
  Req.Id = 9;
  Req.Source = "x";
  ASSERT_TRUE(C.send(FrameType::Request, encodeRequest(Req)));
  Frame F;
  EXPECT_EQ(C.next(F, monoNowNs() + 50'000'000ull),
            FrameClient::Read::Timeout);
  EXPECT_TRUE(C.connected());

  Release.store(true);
  ASSERT_EQ(C.next(F, monoNowNs() + FiveSecondsNs), FrameClient::Read::Frame);
  ASSERT_EQ(F.Type, FrameType::Response);
  ResponseMsg Resp;
  std::string Err;
  ASSERT_TRUE(decodeResponse(F.Payload, Resp, Err)) << Err;
  EXPECT_EQ(Resp.Id, 9u);
  EXPECT_EQ(Resp.Payload, "asm:x");

  // The Shutdown frame ends serving, so the server closes this connection.
  ASSERT_TRUE(C.send(FrameType::Shutdown, ""));
  EXPECT_EQ(C.next(F, monoNowNs() + FiveSecondsNs), FrameClient::Read::Lost);
  H.T.join();
  EXPECT_EQ(H.ExitCode, ExitOk);
}

//===----------------------------------------------------------------------===//
// CompileService: the real handler
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, CompilesAndReportsErrors) {
  std::string Err;
  std::unique_ptr<CompileService> Svc = CompileService::create(Err);
  ASSERT_NE(Svc, nullptr) << Err;

  RequestMsg Good;
  Good.Id = 1;
  Good.Source = "int main() { int x; x = 3; return x + 4; }";
  RequestBudget B1;
  HandlerResult R1 = Svc->compile(Good, B1);
  EXPECT_EQ(R1.Status, ResponseStatus::Ok);
  EXPECT_NE(R1.Payload.find(".text"), std::string::npos);

  RequestMsg Bad;
  Bad.Id = 2;
  Bad.Source = "int main( { this is not minic";
  RequestBudget B2;
  HandlerResult R2 = Svc->compile(Bad, B2);
  EXPECT_EQ(R2.Status, ResponseStatus::CompileError);
  EXPECT_FALSE(R2.Payload.empty());
}

TEST(CompileServiceTest, TracedRequestHasFrontendSpanAndStatus) {
  std::string Err;
  std::unique_ptr<CompileService> Svc = CompileService::create(Err);
  ASSERT_NE(Svc, nullptr) << Err;

  // The frontend is a phase of its own: while it runs, the request's
  // status reads "frontend".
  RequestBudget Probe;
  {
    PhaseScope PS(Phase::Frontend, &Probe);
    EXPECT_STREQ(phaseShortName(Probe.CurPhase.load()), "frontend");
  }

  // Served and traced, the request's timeline has a cg.frontend span
  // tagged with its id, which gg-report --trace's per-request table
  // (cg.* and match.* spans) picks up.
  TraceRecorder &Rec = TraceRecorder::global();
  Rec.clear();
  Rec.enable();
  ServerOptions Opts;
  Opts.Workers = 1;
  const CompileService &S = *Svc;
  PipeHarness H([&S](const RequestMsg &Req,
                     RequestBudget &B) { return S.compile(Req, B); },
                Opts);
  H.sendRequest(7301, "int main() { int x; x = 3; return x + 4; }");
  std::vector<ResponseMsg> Rs = H.finish();
  Rec.disable();
  ASSERT_NE(findById(Rs, 7301), nullptr);
  EXPECT_EQ(findById(Rs, 7301)->Status, ResponseStatus::Ok);
  int Frontend = 0;
  for (const TraceEvent &E : Rec.events()) {
    if (E.name() != "cg.frontend")
      continue;
    for (const auto &[Key, Value] : E.args())
      if (std::string_view(Key) == "req" && Value == 7301)
        ++Frontend;
  }
  Rec.clear();
  EXPECT_EQ(Frontend, 1);
}

TEST(CompileServiceTest, MemoryBudgetQuarantinesWithoutFallback) {
  std::string Err;
  std::unique_ptr<CompileService> Svc = CompileService::create(Err);
  ASSERT_NE(Svc, nullptr) << Err;

  RequestMsg Req;
  Req.Id = 1;
  Req.Source = "int main() { int a; int b; a = 1; b = 2; return a + b; }";
  RequestBudget B;
  B.MaxArenaBytes = 256; // a handful of nodes
  HandlerResult R = Svc->compile(Req, B);
  EXPECT_EQ(R.Status, ResponseStatus::MemBudget);
  EXPECT_EQ(B.Stopped.load(), BudgetStop::Memory);
}

TEST(CompileServiceTest, PreStoppedBudgetFailsFast) {
  std::string Err;
  std::unique_ptr<CompileService> Svc = CompileService::create(Err);
  ASSERT_NE(Svc, nullptr) << Err;

  RequestMsg Req;
  Req.Id = 1;
  Req.Source = "int main() { return 0; }";
  RequestBudget B;
  B.Cancelled.store(true); // watchdog got there first
  HandlerResult R = Svc->compile(Req, B);
  EXPECT_EQ(R.Status, ResponseStatus::Deadline);
  EXPECT_NE(R.Payload.find("budget exhausted"), std::string::npos);
}

TEST(CompileServiceTest, ReloadSwapsGenerationAndSurvivesBadReload) {
  std::string Err;
  std::unique_ptr<CompileService> Svc = CompileService::create(Err);
  ASSERT_NE(Svc, nullptr) << Err;
  EXPECT_EQ(Svc->generation(), 1u);

  RequestMsg Req;
  Req.Id = 1;
  Req.Source = "int main() { int x; x = 3; return x + 4; }";
  RequestBudget B1;
  HandlerResult R1 = Svc->compile(Req, B1);
  ASSERT_EQ(R1.Status, ResponseStatus::Ok);
  EXPECT_EQ(R1.Generation, 1u);

  // A successful reload bumps the generation; the rebuild is
  // deterministic, so the same source compiles byte-identically across
  // generations — the invariant gg-load --verify leans on.
  uint64_t NewGen = 0;
  ASSERT_TRUE(Svc->reload(NewGen, Err)) << Err;
  EXPECT_EQ(NewGen, 2u);
  EXPECT_EQ(Svc->generation(), 2u);
  RequestBudget B2;
  HandlerResult R2 = Svc->compile(Req, B2);
  ASSERT_EQ(R2.Status, ResponseStatus::Ok);
  EXPECT_EQ(R2.Generation, 2u);
  EXPECT_EQ(R2.Payload, R1.Payload);

  // A reload whose fresh image fails checksum verification must keep the
  // old image serving at the old generation.
  std::string FErr;
  ASSERT_TRUE(faultInject().configure("corrupt-table", FErr)) << FErr;
  uint64_t FailedGen = 0;
  EXPECT_FALSE(Svc->reload(FailedGen, Err));
  faultInject().reset();
  EXPECT_EQ(FailedGen, 2u);
  EXPECT_EQ(Svc->generation(), 2u);
  EXPECT_FALSE(Err.empty());
  RequestBudget B3;
  HandlerResult R3 = Svc->compile(Req, B3);
  EXPECT_EQ(R3.Status, ResponseStatus::Ok);
  EXPECT_EQ(R3.Generation, 2u);
  EXPECT_EQ(R3.Payload, R1.Payload);
}

TEST(CompileServiceTest, ServerStatsKeysAreRegistered) {
  // The server schema keys must exist (value 0 is fine) so gg-report can
  // merge server stats artifacts without special cases. Constructing a
  // Server registers them, independent of test order.
  Server S([](const RequestMsg &, RequestBudget &) { return HandlerResult{}; },
           ServerOptions{});
  StatsRegistry &Reg = stats();
  std::string Json = Reg.toJson();
  for (const char *Key :
       {"server.requests", "server.ok", "server.quarantined",
        "server.watchdog_kills", "server.restarts", "server.resyncs",
        "server.overloaded", "server.shed_queue_full", "server.shed_oldest",
        "server.shed_queue_deadline", "server.shed_admission_deadline",
        "server.shed_draining", "server.drains", "server.reloads",
        "server.reload_failures", "server.queue_depth",
        "server.queue_wait_ms"})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

TEST(CompileServiceTest, WarmServedRequestsTakeNoStatsLock) {
  // Every registry entry on the request path is a reference looked up
  // once, so after warm-up a served request — frontend, phase 1, the
  // parallel matcher, peephole, the server's own counters — adds no
  // StatsRegistry lookup, and so takes no registry mutex. Neither does a
  // Status probe, which reads the server.* counters it reports.
  std::string Err;
  CodeGenOptions Base;
  Base.Parallel.Threads = 2;
  std::unique_ptr<CompileService> Svc = CompileService::create(Err, Base);
  ASSERT_NE(Svc, nullptr) << Err;
  ServerOptions Opts;
  Opts.Workers = 2;
  const CompileService &S = *Svc;
  PipeHarness H([&S](const RequestMsg &Req,
                     RequestBudget &B) { return S.compile(Req, B); },
                Opts);
  StatsRegistry &Reg = stats();
  std::atomic<uint64_t> &Ok = Reg.counter("server.ok");
  std::atomic<uint64_t> &Errors = Reg.counter("server.compile_errors");
  const uint64_t Ok0 = Ok, Errors0 = Errors;
  // Small programs: every response must fit the harness's pipe buffer.
  const std::string Good =
      "int sq(int x) { return x * x; }\n"
      "int sum(int n) { int i; int s; s = 0;"
      " for (i = 0; i < n; i = i + 1) s = s + sq(i); return s; }\n"
      "int main() { if (sum(4) > 10) print(sum(3)); return 0; }\n";
  const std::string Bad = "int main( { this is not minic";

  H.sendRequest(1, Good);
  H.sendRequest(2, Bad);
  ASSERT_TRUE(
      spinUntil([&] { return Ok == Ok0 + 1 && Errors == Errors0 + 1; }));
  const uint64_t Warm = Reg.lookups();
  for (uint64_t Id = 3; Id < 9; ++Id) {
    H.send(FrameType::Status, encodeStatus(StatusMsg{Id}));
    H.sendRequest(Id, Id % 3 ? Good : Bad);
  }
  ASSERT_TRUE(
      spinUntil([&] { return Ok == Ok0 + 5 && Errors == Errors0 + 3; }))
      << Ok - Ok0 << " " << Errors - Errors0;
  EXPECT_EQ(Reg.lookups(), Warm)
      << "a warm request or Status probe looked a stats entry up";
  std::vector<ResponseMsg> Rs = H.finish();
  EXPECT_EQ(Rs.size(), 8u);
  EXPECT_EQ(H.StatusReplies.size(), 6u);
}

} // namespace

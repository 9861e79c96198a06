//===- Frame.cpp - compile-server wire protocol -------------------------------===//

#include "support/Frame.h"
#include "support/Clock.h"
#include "support/Strings.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace gg;

const char gg::FrameMagic[4] = {'G', 'G', 'F', '1'};

namespace {

constexpr size_t HeaderLen = 4 + 1 + 4; ///< magic + type + length
constexpr size_t TrailerLen = 4;        ///< checksum

bool knownFrameType(uint8_t T) {
  return T >= static_cast<uint8_t>(FrameType::Request) &&
         T <= static_cast<uint8_t>(FrameType::StatusReply);
}

void putU8(std::string &Out, uint8_t V) {
  Out.push_back(static_cast<char>(V));
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

uint32_t getU32(const char *P) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  return V;
}

/// Bounds-checked little-endian reader for payload codecs; mirrors the
/// hardened style of the v2 table deserializer.
class ByteReader {
public:
  ByteReader(std::string_view Data) : Data(Data) {}

  bool u8(uint8_t &V) {
    if (Pos + 1 > Data.size())
      return false;
    V = static_cast<unsigned char>(Data[Pos++]);
    return true;
  }

  bool u32(uint32_t &V) {
    if (Pos + 4 > Data.size())
      return false;
    V = getU32(Data.data() + Pos);
    Pos += 4;
    return true;
  }

  bool u64(uint64_t &V) {
    if (Pos + 8 > Data.size())
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Pos + I]))
           << (8 * I);
    Pos += 8;
    return true;
  }

  bool bytes(std::string &V, size_t Len) {
    if (Pos + Len > Data.size())
      return false;
    V.assign(Data.data() + Pos, Len);
    Pos += Len;
    return true;
  }

  bool atEnd() const { return Pos == Data.size(); }

private:
  std::string_view Data;
  size_t Pos = 0;
};

} // namespace

uint32_t gg::frameChecksum(std::string_view Data) {
  uint32_t H = 2166136261u;
  for (char C : Data) {
    H ^= static_cast<unsigned char>(C);
    H *= 16777619u;
  }
  return H;
}

void gg::appendFrame(std::string &Out, FrameType Type,
                     std::string_view Payload) {
  size_t Start = Out.size();
  Out.append(FrameMagic, 4);
  putU8(Out, static_cast<uint8_t>(Type));
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  Out.append(Payload);
  // Checksum covers type + length + payload: a flip anywhere after the
  // magic is detected by the same 4 trailing bytes.
  putU32(Out, frameChecksum(
                  std::string_view(Out.data() + Start + 4, Out.size() - Start - 4)));
}

void FrameReader::compact() {
  // Amortized cleanup so a long-lived stream does not grow without bound.
  if (Pos > 4096 && Pos > Buf.size() / 2) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
}

FrameReader::Status FrameReader::resync(const std::string &Why) {
  Err = Why;
  ++Resyncs;
  // Skip the poisoned byte and scan for the next full magic. If none is
  // buffered yet, keep the last 3 bytes — a magic may straddle the next
  // feed() boundary.
  size_t Next = Buf.find(std::string(FrameMagic, 4), Pos + 1);
  if (Next != std::string::npos)
    Pos = Next;
  else
    Pos = std::max(Pos + 1, Buf.size() > 3 ? Buf.size() - 3 : 0);
  compact();
  return Status::Corrupt;
}

FrameReader::Status FrameReader::next(Frame &Out) {
  compact();
  size_t Avail = Buf.size() - Pos;
  if (Avail < HeaderLen)
    return Status::NeedMore;
  const char *P = Buf.data() + Pos;
  if (memcmp(P, FrameMagic, 4) != 0)
    return resync("bad frame magic");
  uint8_t Type = static_cast<unsigned char>(P[4]);
  uint32_t Len = getU32(P + 5);
  if (Len > MaxFrameBytes)
    return resync(strf("oversized frame: %u bytes (cap %u)", Len,
                       MaxFrameBytes));
  if (!knownFrameType(Type))
    return resync(strf("unknown frame type %u", Type));
  if (Avail < HeaderLen + Len + TrailerLen)
    return Status::NeedMore;
  uint32_t Want = getU32(P + HeaderLen + Len);
  uint32_t Got =
      frameChecksum(std::string_view(P + 4, 1 + 4 + Len));
  if (Want != Got)
    return resync(strf("frame checksum mismatch (got %08x, want %08x)", Got,
                       Want));
  Out.Type = static_cast<FrameType>(Type);
  Out.Payload.assign(P + HeaderLen, Len);
  Pos += HeaderLen + Len + TrailerLen;
  compact();
  return Status::Frame;
}

const char *gg::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::CompileError:
    return "compile-error";
  case ResponseStatus::Deadline:
    return "deadline";
  case ResponseStatus::StepBudget:
    return "step-budget";
  case ResponseStatus::MemBudget:
    return "mem-budget";
  case ResponseStatus::Watchdog:
    return "watchdog";
  case ResponseStatus::Protocol:
    return "protocol";
  }
  return "unknown";
}

std::string gg::encodeRequest(const RequestMsg &M) {
  std::string Out;
  putU64(Out, M.Id);
  putU32(Out, M.DeadlineMs);
  putU64(Out, M.MaxSteps);
  putU64(Out, M.MaxArenaBytes);
  putU32(Out, static_cast<uint32_t>(M.Source.size()));
  Out.append(M.Source);
  return Out;
}

bool gg::decodeRequest(std::string_view Payload, RequestMsg &M,
                       std::string &Err) {
  ByteReader R(Payload);
  uint32_t SrcLen = 0;
  if (!R.u64(M.Id) || !R.u32(M.DeadlineMs) || !R.u64(M.MaxSteps) ||
      !R.u64(M.MaxArenaBytes) || !R.u32(SrcLen)) {
    Err = "truncated request header";
    return false;
  }
  if (!R.bytes(M.Source, SrcLen)) {
    Err = strf("request source truncated: header says %u bytes", SrcLen);
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing garbage after request source";
    return false;
  }
  return true;
}

std::string gg::encodeResponse(const ResponseMsg &M) {
  std::string Out;
  putU64(Out, M.Id);
  putU8(Out, static_cast<uint8_t>(M.Status));
  putU32(Out, M.BlockedTrees);
  putU32(Out, M.RecoveredTrees);
  putU64(Out, M.Generation);
  putU32(Out, static_cast<uint32_t>(M.Payload.size()));
  Out.append(M.Payload);
  return Out;
}

bool gg::decodeResponse(std::string_view Payload, ResponseMsg &M,
                        std::string &Err) {
  ByteReader R(Payload);
  uint8_t Status = 0;
  uint32_t TextLen = 0;
  if (!R.u64(M.Id) || !R.u8(Status) || !R.u32(M.BlockedTrees) ||
      !R.u32(M.RecoveredTrees) || !R.u64(M.Generation) || !R.u32(TextLen)) {
    Err = "truncated response header";
    return false;
  }
  if (Status > static_cast<uint8_t>(ResponseStatus::Protocol)) {
    Err = strf("response status %u out of range", Status);
    return false;
  }
  M.Status = static_cast<ResponseStatus>(Status);
  if (!R.bytes(M.Payload, TextLen)) {
    Err = strf("response payload truncated: header says %u bytes", TextLen);
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing garbage after response payload";
    return false;
  }
  return true;
}

const char *gg::overloadCauseName(OverloadCause C) {
  switch (C) {
  case OverloadCause::QueueFull:
    return "queue-full";
  case OverloadCause::ShedOldest:
    return "shed-oldest";
  case OverloadCause::QueueDeadline:
    return "queue-deadline";
  case OverloadCause::AdmissionDeadline:
    return "admission-deadline";
  case OverloadCause::Draining:
    return "draining";
  }
  return "unknown";
}

std::string gg::encodeOverload(const OverloadMsg &M) {
  std::string Out;
  putU64(Out, M.Id);
  putU32(Out, M.RetryAfterMs);
  putU32(Out, M.QueueDepth);
  putU8(Out, static_cast<uint8_t>(M.Cause));
  return Out;
}

bool gg::decodeOverload(std::string_view Payload, OverloadMsg &M,
                        std::string &Err) {
  ByteReader R(Payload);
  uint8_t Cause = 0;
  if (!R.u64(M.Id) || !R.u32(M.RetryAfterMs) || !R.u32(M.QueueDepth) ||
      !R.u8(Cause)) {
    Err = "truncated overload notice";
    return false;
  }
  if (Cause > static_cast<uint8_t>(OverloadCause::Draining)) {
    Err = strf("overload cause %u out of range", Cause);
    return false;
  }
  M.Cause = static_cast<OverloadCause>(Cause);
  if (!R.atEnd()) {
    Err = "trailing garbage after overload notice";
    return false;
  }
  return true;
}

std::string gg::encodeReloaded(const ReloadedMsg &M) {
  std::string Out;
  putU64(Out, M.Generation);
  putU8(Out, M.Ok ? 1 : 0);
  putU32(Out, static_cast<uint32_t>(M.Text.size()));
  Out.append(M.Text);
  return Out;
}

bool gg::decodeReloaded(std::string_view Payload, ReloadedMsg &M,
                        std::string &Err) {
  ByteReader R(Payload);
  uint32_t TextLen = 0;
  if (!R.u64(M.Generation) || !R.u8(M.Ok) || !R.u32(TextLen)) {
    Err = "truncated reload outcome";
    return false;
  }
  if (M.Ok > 1) {
    Err = strf("reload ok flag %u out of range", M.Ok);
    return false;
  }
  if (!R.bytes(M.Text, TextLen)) {
    Err = strf("reload text truncated: header says %u bytes", TextLen);
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing garbage after reload outcome";
    return false;
  }
  return true;
}

std::string gg::encodeStatus(const StatusMsg &M) {
  std::string Out;
  putU64(Out, M.Id);
  return Out;
}

bool gg::decodeStatus(std::string_view Payload, StatusMsg &M,
                      std::string &Err) {
  ByteReader R(Payload);
  if (!R.u64(M.Id)) {
    Err = "truncated status probe";
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing garbage after status probe";
    return false;
  }
  return true;
}

std::string gg::encodeStatusReply(const StatusReplyMsg &M) {
  std::string Out;
  putU64(Out, M.Id);
  putU32(Out, static_cast<uint32_t>(M.Text.size()));
  Out.append(M.Text);
  return Out;
}

bool gg::decodeStatusReply(std::string_view Payload, StatusReplyMsg &M,
                           std::string &Err) {
  ByteReader R(Payload);
  uint32_t TextLen = 0;
  if (!R.u64(M.Id) || !R.u32(TextLen)) {
    Err = "truncated status reply";
    return false;
  }
  if (!R.bytes(M.Text, TextLen)) {
    Err = strf("status text truncated: header says %u bytes", TextLen);
    return false;
  }
  if (!R.atEnd()) {
    Err = "trailing garbage after status reply";
    return false;
  }
  return true;
}

bool gg::writeAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t N = ::write(Fd, Data.data(), Data.size());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

int gg::connectUnixSocket(const std::string &Path, ConnectBackoff Backoff) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  memcpy(Addr.sun_path, Path.data(), Path.size());
  int DelayMs = 20;
  for (int Try = 0; Try < Backoff.Tries; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    DelayMs = std::min(DelayMs * 2, Backoff.MaxDelayMs);
  }
  return -1;
}

bool FrameClient::connect(const std::string &Path, ConnectBackoff Backoff) {
  adopt(connectUnixSocket(Path, Backoff));
  return connected();
}

void FrameClient::adopt(int NewFd) {
  close();
  Fd = NewFd;
}

void FrameClient::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Reader = FrameReader();
}

bool FrameClient::write(std::string_view Bytes) {
  if (Fd >= 0 && writeAll(Fd, Bytes))
    return true;
  close();
  return false;
}

bool FrameClient::send(FrameType Type, std::string_view Payload) {
  std::string Wire;
  appendFrame(Wire, Type, Payload);
  return write(Wire);
}

FrameClient::Read FrameClient::next(Frame &Out, uint64_t DeadlineNs) {
  char Chunk[65536];
  while (true) {
    FrameReader::Status S = Reader.next(Out);
    if (S == FrameReader::Status::Frame)
      return Read::Frame;
    if (S == FrameReader::Status::Corrupt)
      continue; // the reader has already resynced
    if (Fd < 0)
      return Read::Lost;
    uint64_t Now = monoNowNs();
    if (Now >= DeadlineNs)
      return Read::Timeout;
    pollfd P{Fd, POLLIN, 0};
    uint64_t WaitMs = (DeadlineNs - Now) / 1000000 + 1;
    int R = ::poll(&P, 1, static_cast<int>(std::min<uint64_t>(WaitMs, 60000)));
    if (R == 0 || (R < 0 && errno == EINTR))
      continue; // the deadline check above ends the wait
    ssize_t N = R < 0 ? -1 : ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      close();
      return Read::Lost;
    }
    Reader.feed(Chunk, static_cast<size_t>(N));
  }
}

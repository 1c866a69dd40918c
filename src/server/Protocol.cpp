//===- server/Protocol.cpp - staubd wire protocol -------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace staub;
using namespace staub::server;

std::vector<std::string> staub::server::splitTokens(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::istringstream In(Line);
  std::string Token;
  while (In >> Token)
    Tokens.push_back(Token);
  return Tokens;
}

bool staub::server::writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
#ifdef MSG_NOSIGNAL
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
#else
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
#endif
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool FrameReader::readLine(std::string &Line, bool &SawEof) {
  SawEof = false;
  for (;;) {
    size_t Pos = Buffer.find('\n');
    if (Pos != std::string::npos) {
      Line.assign(Buffer, 0, Pos);
      Buffer.erase(0, Pos + 1);
      return true;
    }
    // A header line longer than the frame limit is as hostile as an
    // oversized payload; bail before buffering unbounded garbage.
    if (Buffer.size() > MaxFrameBytes)
      return false;
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0) {
      SawEof = true;
      if (!Buffer.empty()) {
        Line = std::move(Buffer);
        Buffer.clear();
        return true; // Final unterminated line.
      }
      return false;
    }
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

bool FrameReader::readExact(std::string &Out, size_t Bytes) {
  while (Buffer.size() < Bytes) {
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
  Out.assign(Buffer, 0, Bytes);
  Buffer.erase(0, Bytes);
  return true;
}

ReadStatus FrameReader::next(Frame &Out, std::string &Error) {
  Out = Frame{};
  std::string Line;
  bool SawEof = false;
  if (!readLine(Line, SawEof)) {
    if (SawEof)
      return ReadStatus::Eof;
    Error = Buffer.size() > MaxFrameBytes ? "header line exceeds frame limit"
                                          : "read failed";
    return Buffer.size() > MaxFrameBytes ? ReadStatus::Oversized
                                         : ReadStatus::IoError;
  }
  std::vector<std::string> Tokens = splitTokens(Line);
  if (Tokens.empty())
    return ReadStatus::BadHeader; // Blank line.
  Out.Verb = Tokens[0];
  Out.Args.assign(Tokens.begin() + 1, Tokens.end());

  if (Out.Verb != "query")
    return ReadStatus::Ok;

  // query <id> <nbytes> [timeout=<sec>]
  if (Out.Args.size() < 2) {
    Error = "query needs <id> <nbytes>";
    return ReadStatus::BadHeader;
  }
  errno = 0;
  char *End = nullptr;
  unsigned long long Bytes = std::strtoull(Out.Args[1].c_str(), &End, 10);
  if (errno != 0 || End == Out.Args[1].c_str() || *End != '\0') {
    Error = "bad byte count '" + Out.Args[1] + "'";
    return ReadStatus::BadHeader;
  }
  if (Bytes > MaxFrameBytes) {
    Error = "payload of " + Out.Args[1] + " bytes exceeds frame limit";
    return ReadStatus::Oversized;
  }
  // Payload plus its terminating newline.
  if (!readExact(Out.Payload, static_cast<size_t>(Bytes))) {
    Error = "stream ended inside payload";
    return ReadStatus::Truncated;
  }
  std::string Newline;
  if (!readExact(Newline, 1) || Newline != "\n") {
    Error = "payload not newline-terminated";
    return ReadStatus::Truncated;
  }
  return ReadStatus::Ok;
}

int staub::server::connectUnix(const std::string &Path, std::string *Error) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Path;
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Error)
      *Error = Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int staub::server::connectTcp(uint16_t Port, std::string *Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Error)
      *Error = "127.0.0.1:" + std::to_string(Port) + ": " +
               std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

std::string staub::server::formatQuery(const std::string &Id,
                                       const std::string &SmtLib,
                                       double TimeoutSeconds) {
  std::string Out = "query " + Id + " " + std::to_string(SmtLib.size());
  if (TimeoutSeconds > 0) {
    // %.17g round-trips; six fixed decimals would send a tiny budget as 0.
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), " timeout=%.17g", TimeoutSeconds);
    Out += Buf;
  }
  Out += "\n";
  Out += SmtLib;
  Out += "\n";
  return Out;
}

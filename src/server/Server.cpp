//===- server/Server.cpp - staubd: persistent arbitrage service -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "smtlib/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace staub;
using namespace staub::server;

//===--------------------------------------------------------------------===//
// Query evaluation.
//===--------------------------------------------------------------------===//

QueryResult staub::server::evaluateQuery(const std::string &SmtLib,
                                         SharedSolveCaches *,
                                         double TimeoutSeconds) {
  WallTimer Timer;
  QueryResult R;
  TermManager Manager;
  ParseResult Parsed = parseSmtLib(Manager, SmtLib);
  if (!Parsed.Ok) {
    R.Error = Parsed.Error;
    R.Seconds = Timer.elapsedSeconds();
    return R;
  }
  std::unique_ptr<SolverBackend> Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = TimeoutSeconds;
  PortfolioResult P = runPortfolio(Manager, Parsed.Parsed.Assertions,
                                   *Backend, Options, LanePolicy::Sequential);
  R.Ok = true;
  R.Status = P.Status;
  R.Width = P.Staub.ChosenWidth;
  R.Path = std::string(toString(P.Staub.Path));
  if (!P.StaubWon) // The STAUB lane reverted to the fallback solve.
    R.Path.insert(0, "fallback:");
  R.Seconds = Timer.elapsedSeconds();
  return R;
}

//===--------------------------------------------------------------------===//
// StaubServer.
//===--------------------------------------------------------------------===//

StaubServer::StaubServer(const ServerOptions &Options) : Options(Options) {}

StaubServer::~StaubServer() {
  requestShutdown();
  awaitShutdown();
}

bool StaubServer::start(std::string *Error) {
  // A Unix socket is bound under a temporary name and renamed into place
  // once it listens: a client that waits for the path to appear must
  // never find a socket that still refuses connections.
  std::string BoundPath;
  if (!Options.SocketPath.empty()) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      if (Error)
        *Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    BoundPath = Options.SocketPath + ".tmp";
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (BoundPath.size() >= sizeof(Addr.sun_path)) {
      if (Error)
        *Error = "socket path too long: " + Options.SocketPath;
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    std::memcpy(Addr.sun_path, BoundPath.c_str(), BoundPath.size() + 1);
    ::unlink(BoundPath.c_str()); // Stale socket from a dead server.
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      if (Error)
        *Error = Options.SocketPath + ": " + std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      if (Error)
        *Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Options.TcpPort);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      if (Error)
        *Error = "127.0.0.1:" + std::to_string(Options.TcpPort) + ": " +
                 std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) ==
        0)
      BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(ListenFd, 64) != 0) {
    if (Error)
      *Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (!BoundPath.empty() &&
      ::rename(BoundPath.c_str(), Options.SocketPath.c_str()) != 0) {
    if (Error)
      *Error = Options.SocketPath + ": " + std::strerror(errno);
    ::unlink(BoundPath.c_str());
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  unsigned NumWorkers = Options.Workers
                            ? Options.Workers
                            : std::max(1u, std::thread::hardware_concurrency());
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  Acceptor = std::thread([this] { acceptLoop(); });
  Started = true;
  return true;
}

void StaubServer::closeListener() {
  // exchange() so a racing second caller sees -1 and the fd is closed
  // exactly once, while acceptLoop() keeps a torn-free view of the fd.
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0) {
    // shutdown() before close() reliably unblocks a blocked accept(2).
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
}

void StaubServer::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (ShuttingDown)
      return;
    ShuttingDown = true;
  }
  closeListener();
  QueueCv.notify_all();
  DrainCv.notify_all();
}

void StaubServer::awaitShutdown() {
  {
    // Block until shutdown is requested AND every queued or in-flight
    // query has been answered (the "drain" in graceful shutdown).
    std::unique_lock<std::mutex> Lock(Mutex);
    DrainCv.wait(Lock, [this] {
      return ShuttingDown && Queue.empty() && ActiveJobs == 0;
    });
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();

  // Responses are flushed; now tear the connections down so their reader
  // threads unblock and exit.
  std::vector<std::shared_ptr<Connection>> ToClose;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ToClose = Connections;
  }
  for (const std::shared_ptr<Connection> &Conn : ToClose) {
    if (Conn->Fd >= 0)
      ::shutdown(Conn->Fd, SHUT_RDWR);
    if (Conn->Reader.joinable())
      Conn->Reader.join();
    if (Conn->Fd >= 0) {
      ::close(Conn->Fd);
      Conn->Fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Connections.clear();
  }

  if (Acceptor.joinable())
    Acceptor.join();
  if (Started && !Options.SocketPath.empty())
    ::unlink(Options.SocketPath.c_str());
}

ServerStats StaubServer::stats() const {
  ServerStats S;
  S.QueriesServed = QueriesServed.load(std::memory_order_relaxed);
  S.QueriesFailed = QueriesFailed.load(std::memory_order_relaxed);
  S.ConnectionsAccepted = ConnectionsAccepted.load(std::memory_order_relaxed);
  return S;
}

bool StaubServer::respond(Connection &Conn, const std::string &Line) {
  std::lock_guard<std::mutex> Lock(Conn.WriteMutex);
  return writeAll(Conn.Fd, Line);
}

void StaubServer::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // Listener closed (shutdown) or fatal error.
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (ShuttingDown) {
        ::close(Fd);
        return;
      }
      auto Conn = std::make_shared<Connection>();
      Conn->Fd = Fd;
      Connections.push_back(Conn);
      ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed);
      Conn->Reader = std::thread([this, Conn] { readerLoop(Conn); });
    }
  }
}

void StaubServer::readerLoop(std::shared_ptr<Connection> Conn) {
  FrameReader Reader(Conn->Fd, Options.MaxFrameBytes);
  bool Open = true;
  while (Open) {
    Frame F;
    std::string FrameError;
    ReadStatus Status = Reader.next(F, FrameError);
    switch (Status) {
    case ReadStatus::Eof:
    case ReadStatus::IoError:
      Open = false;
      continue;
    case ReadStatus::Oversized:
    case ReadStatus::Truncated:
      // No trustworthy frame boundary left on this stream.
      respond(*Conn,
              "error - " +
                  std::string(Status == ReadStatus::Oversized
                                  ? "oversized-frame "
                                  : "truncated-frame ") +
                  FrameError + "\n");
      Open = false;
      continue;
    case ReadStatus::BadHeader:
      respond(*Conn, "error - bad-frame " +
                         (FrameError.empty() ? "malformed header"
                                             : FrameError) +
                         "\n");
      continue;
    case ReadStatus::Ok:
      break;
    }

    if (F.Verb == "ping") {
      respond(*Conn, "pong\n");
    } else if (F.Verb == "stats") {
      ServerStats S = stats();
      std::string Line =
          "stats queries=" + std::to_string(S.QueriesServed) +
          " failed=" + std::to_string(S.QueriesFailed) +
          " connections=" + std::to_string(S.ConnectionsAccepted) + "\n";
      respond(*Conn, Line);
    } else if (F.Verb == "shutdown") {
      respond(*Conn, "bye\n");
      requestShutdown();
      // Keep reading until EOF so queries this client already pipelined
      // ahead of the shutdown verb still fail cleanly below.
    } else if (F.Verb == "query") {
      const std::string &Id = F.Args.empty() ? "-" : F.Args[0];
      std::optional<double> Timeout = Options.DefaultTimeoutSeconds;
      for (size_t I = 2; I < F.Args.size() && Timeout; ++I)
        if (F.Args[I].rfind("timeout=", 0) == 0)
          Timeout = parseTimeoutSeconds(F.Args[I].substr(8));
      if (!Timeout) {
        // The payload is already read, so the stream stays in sync.
        respond(*Conn, "error " + Id + " bad-timeout timeout= needs a finite "
                                       "number of seconds above 0\n");
        continue;
      }
      Job J;
      J.Conn = Conn;
      J.Id = Id;
      J.SmtLib = std::move(F.Payload);
      J.TimeoutSeconds = *Timeout;
      bool Rejected = false;
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (ShuttingDown) {
          Rejected = true;
        } else {
          ++Conn->Pending;
          Queue.push_back(std::move(J));
        }
      }
      if (Rejected)
        respond(*Conn, "error " + Id + " shutting-down server is draining\n");
      else
        QueueCv.notify_one();
    } else {
      respond(*Conn, "error - bad-frame unknown verb '" + F.Verb + "'\n");
    }
  }

  // Wait for this connection's in-flight queries to be answered before
  // releasing the fd: respond() must never race a close().
  std::unique_lock<std::mutex> Lock(Mutex);
  DrainCv.wait(Lock, [&] { return Conn->Pending == 0; });
  // The fd itself is closed by awaitShutdown() (which also joins this
  // thread) or stays open until then only as a number; half-closed
  // sockets cost nothing. For long-lived servers, reap it here if
  // shutdown has not begun.
  if (!ShuttingDown) {
    for (size_t I = 0; I < Connections.size(); ++I) {
      if (Connections[I].get() == Conn.get()) {
        Connections[I]->Reader.detach();
        ::close(Connections[I]->Fd);
        Connections[I]->Fd = -1;
        Connections.erase(Connections.begin() + I);
        break;
      }
    }
  }
}

void StaubServer::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      QueueCv.wait(Lock, [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty()) {
        // ShuttingDown with an empty queue: drained.
        return;
      }
      J = std::move(Queue.front());
      Queue.pop_front();
      ++ActiveJobs;
    }

    QueryResult R = evaluateQuery(J.SmtLib, nullptr, J.TimeoutSeconds);
    std::string Line;
    if (!R.Ok) {
      QueriesFailed.fetch_add(1, std::memory_order_relaxed);
      Line = "error " + J.Id + " parse " + R.Error + "\n";
    } else {
      QueriesServed.fetch_add(1, std::memory_order_relaxed);
      char Seconds[32];
      std::snprintf(Seconds, sizeof(Seconds), "%.6f", R.Seconds);
      Line = "result " + J.Id + " " + std::string(toString(R.Status)) +
             " path=" + R.Path + " width=" + std::to_string(R.Width) +
             " seconds=" + Seconds + "\n";
    }
    respond(*J.Conn, Line);

    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --ActiveJobs;
      --J.Conn->Pending;
    }
    DrainCv.notify_all();
  }
}

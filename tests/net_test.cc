// Tests for the TCP transport (src/net): wire framing robustness, message
// serde round-trips, the AFT service server + remote client over real
// loopback sockets, fault injection (server killed mid-commit), and the
// socket-based commit multicast with fault-manager recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "src/common/rng.h"
#include "src/cluster/deployment.h"
#include "src/core/records.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/tcp_multicast_bus.h"
#include "src/storage/sim_dynamo.h"

namespace aft {
namespace {

using net::AftServiceServer;
using net::AftServiceServerOptions;
using net::DecodeFrame;
using net::EncodeFrame;
using net::Frame;
using net::Listener;
using net::MessageType;
using net::NetEndpoint;
using net::ReadFrame;
using net::RemoteAftClient;
using net::RemoteAftClientOptions;
using net::Socket;
using net::TcpConnect;

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

// Client options tuned for tests: fail fast instead of the production-grade
// ten-second budgets.
RemoteAftClientOptions FastClient() {
  RemoteAftClientOptions options;
  options.connect_timeout = std::chrono::seconds(2);
  options.call_timeout = std::chrono::seconds(5);
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_backoff = std::chrono::milliseconds(20);
  options.max_attempts = 2;
  return options;
}

// ---- Frame layer ------------------------------------------------------------

TEST(FrameTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value (IEEE 802.3, reflected 0xEDB88320).
  EXPECT_EQ(net::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(net::Crc32(""), 0x00000000u);
}

TEST(FrameTest, RoundTripsPayloads) {
  const std::string payloads[] = {
      "",
      "hello",
      std::string("\x00\x01\xff\x7f binary \x00", 14),
      std::string(1 << 20, 'x'),
  };
  for (const std::string& payload : payloads) {
    const std::string bytes = EncodeFrame(MessageType::kCommit, payload);
    ASSERT_EQ(bytes.size(), net::kFrameHeaderSize + payload.size());
    auto frame = DecodeFrame(bytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, MessageType::kCommit);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(FrameTest, RejectsBadMagic) {
  std::string bytes = EncodeFrame(MessageType::kGet, "payload");
  bytes[0] ^= 0xff;
  auto frame = DecodeFrame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, RejectsUnsupportedVersion) {
  std::string bytes = EncodeFrame(MessageType::kGet, "payload");
  bytes[4] = 99;  // version field
  auto frame = DecodeFrame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, RejectsUnknownMessageType) {
  std::string bytes = EncodeFrame(MessageType::kGet, "payload");
  bytes[5] = 0x7f;  // type field: not a known request or response
  auto frame = DecodeFrame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, RejectsCorruptPayload) {
  std::string bytes = EncodeFrame(MessageType::kPut, "checksummed-payload");
  bytes[net::kFrameHeaderSize + 3] ^= 0x10;  // flip one payload bit
  auto frame = DecodeFrame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, RejectsOversizedLength) {
  std::string bytes = EncodeFrame(MessageType::kPut, "small");
  // Patch the length field (offset 8, little-endian) to a hostile value.
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = static_cast<char>(0xff);
  auto frame = DecodeFrame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, RejectsEveryTruncation) {
  const std::string bytes = EncodeFrame(MessageType::kMultiGet, "truncate-me");
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto frame = DecodeFrame(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(frame.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(FrameTest, TruncatedFrameOverSocketIsAnError) {
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto writer = TcpConnect(NetEndpoint{"127.0.0.1", listener->port()}, std::chrono::seconds(2));
  ASSERT_TRUE(writer.ok());
  auto reader = listener->Accept();
  ASSERT_TRUE(reader.ok());

  // A valid frame cut off mid-payload, then EOF: the reader must surface an
  // error, not hang or fabricate a short message.
  const std::string bytes = EncodeFrame(MessageType::kPut, "this payload will be cut off");
  ASSERT_TRUE(writer->SendAll(bytes.data(), bytes.size() - 10).ok());
  writer->Close();
  auto frame = ReadFrame(*reader);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

// ---- Message serde ----------------------------------------------------------

TEST(MessageTest, RequestsRoundTrip) {
  const Uuid txid(0x1122334455667788ull, 0x99aabbccddeeff00ull);

  net::GetRequest get;
  get.txid = txid;
  get.key = "user:42";
  auto get2 = net::GetRequest::Deserialize(get.Serialize());
  ASSERT_TRUE(get2.ok());
  EXPECT_EQ(get2->txid, txid);
  EXPECT_EQ(get2->key, "user:42");

  net::MultiGetRequest mget;
  mget.txid = txid;
  mget.keys = {"a", "b", "c"};
  auto mget2 = net::MultiGetRequest::Deserialize(mget.Serialize());
  ASSERT_TRUE(mget2.ok());
  EXPECT_EQ(mget2->keys, mget.keys);

  net::PutRequest put;
  put.txid = txid;
  put.key = "k";
  put.value = std::string("\x00\x01 binary \xff", 11);
  auto put2 = net::PutRequest::Deserialize(put.Serialize());
  ASSERT_TRUE(put2.ok());
  EXPECT_EQ(put2->value, put.value);

  net::PutBatchRequest batch;
  batch.txid = txid;
  batch.ops = {{"k1", "v1"}, {"k2", "v2"}};
  auto batch2 = net::PutBatchRequest::Deserialize(batch.Serialize());
  ASSERT_TRUE(batch2.ok());
  ASSERT_EQ(batch2->ops.size(), 2u);
  EXPECT_EQ(batch2->ops[1].key, "k2");
  EXPECT_EQ(batch2->ops[1].value, "v2");
}

TEST(MessageTest, CommitRecordsRoundTripThroughApplyCommits) {
  auto record = std::make_shared<CommitRecord>();
  record->id = TxnId{1234567, Uuid(7, 9)};
  record->write_set = {"alpha", "beta"};
  record->locators = {{"alpha", 0, 5}, {"beta", 5, 7}};

  net::ApplyCommitsRequest request;
  request.records = {record};
  auto decoded = net::ApplyCommitsRequest::Deserialize(request.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->records.size(), 1u);
  const CommitRecord& out = *decoded->records[0];
  EXPECT_EQ(out.id, record->id);
  EXPECT_EQ(out.write_set, record->write_set);
  ASSERT_EQ(out.locators.size(), 2u);
  EXPECT_EQ(out.locators[1].key, "beta");
  EXPECT_EQ(out.locators[1].offset, 5u);
  EXPECT_EQ(out.locators[1].length, 7u);
}

TEST(MessageTest, ResponsesCarryStatusVerbatim) {
  net::CommitResponse commit;
  commit.id = TxnId{42, Uuid(1, 2)};
  auto ok = net::CommitResponse::Deserialize(commit.Serialize(Status::Ok()));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->id, commit.id);

  auto aborted =
      net::CommitResponse::Deserialize(net::CommitResponse{}.Serialize(Status::Aborted("lost")));
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);
  EXPECT_EQ(aborted.status().message(), "lost");

  EXPECT_TRUE(net::DeserializeEmptyResponse(net::SerializeEmptyResponse(Status::Ok())).ok());
  const Status not_found =
      net::DeserializeEmptyResponse(net::SerializeEmptyResponse(Status::NotFound("missing")));
  EXPECT_EQ(not_found.code(), StatusCode::kNotFound);
}

TEST(MessageTest, DecodersRejectGarbageAndTruncation) {
  const std::string garbage = "this is not a serialized message at all....";
  EXPECT_FALSE(net::GetRequest::Deserialize(garbage).ok());
  EXPECT_FALSE(net::PutBatchRequest::Deserialize(garbage).ok());
  EXPECT_FALSE(net::ApplyCommitsRequest::Deserialize(garbage).ok());
  EXPECT_FALSE(net::CommitResponse::Deserialize(garbage).ok());

  net::PutRequest put;
  put.txid = Uuid(1, 2);
  put.key = "k";
  put.value = "value";
  const std::string bytes = put.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(net::PutRequest::Deserialize(bytes.substr(0, len)).ok());
  }
  // Trailing junk is rejected too (a frame is exactly one message).
  EXPECT_FALSE(net::PutRequest::Deserialize(bytes + "junk").ok());
}

// A list count field is wire-controlled: a tiny payload claiming billions of
// elements must be rejected up front, not answered with a multi-gigabyte
// reserve() (memory DoS in production, minutes of shadow poisoning under
// ASan). Each decoder bounds the count by the bytes that could back it.
TEST(MessageTest, HostileListCountsAreRejectedWithoutAllocating) {
  BinaryWriter hostile_batch;
  net::EncodeUuid(hostile_batch, Uuid(1, 2));
  hostile_batch.PutU32(0xffffffffu);  // four billion ops, zero bytes of data
  EXPECT_FALSE(net::PutBatchRequest::Deserialize(hostile_batch.data()).ok());

  BinaryWriter hostile_gossip;
  hostile_gossip.PutU32(0xfffffffeu);
  EXPECT_FALSE(net::ApplyCommitsRequest::Deserialize(hostile_gossip.data()).ok());

  // Same for the string-vector primitive every record decoder leans on.
  BinaryWriter hostile_vec;
  hostile_vec.PutU32(0x80000000u);
  BinaryReader reader(hostile_vec.data());
  std::vector<std::string> out;
  EXPECT_FALSE(reader.GetStringVector(&out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);

  // And for commit records (they travel inside kApplyCommits frames): forge a
  // record whose locator count claims more than the payload holds.
  CommitRecord record;
  record.id = TxnId{1, Uuid(3, 4)};
  record.write_set = {"k"};
  std::string bytes = record.Serialize();
  // Locator count is the last u32 before the (empty) locator list.
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = '\xff';
  bytes[bytes.size() - 3] = '\xff';
  bytes[bytes.size() - 2] = '\xff';
  bytes[bytes.size() - 1] = '\xff';
  EXPECT_FALSE(CommitRecord::Deserialize(bytes).ok());
}

// ---- Server + remote client over real sockets -------------------------------

class NetServiceTest : public ::testing::Test {
 protected:
  NetServiceTest() : storage_(clock_, InstantDynamo()), node_("aft-0", storage_, clock_) {
    EXPECT_TRUE(node_.Start().ok());
  }

  SimClock clock_;
  SimDynamo storage_;
  AftNode node_;
};

TEST_F(NetServiceTest, CommitReadCycleOverTcp) {
  AftServiceServer server(node_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  RemoteAftClient client({server.endpoint()}, FastClient());

  EXPECT_EQ(client.Ping(0).value_or("?"), "aft-0");

  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(client.Put(*session, "account:alice", "100").ok());
  // Read-your-writes across the wire.
  auto own = client.Get(*session, "account:alice");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->value(), "100");
  auto committed = client.Commit(*session);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();

  // A fresh transaction (fresh connection state server-side) sees the commit.
  auto reader = client.StartTransaction();
  ASSERT_TRUE(reader.ok());
  auto read = client.Get(*reader, "account:alice");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value(), "100");
  EXPECT_TRUE(client.Abort(*reader).ok());
  server.Stop();
}

TEST_F(NetServiceTest, MultiGetAndPutBatchOverTcp) {
  AftServiceServer server(node_);
  ASSERT_TRUE(server.Start().ok());
  RemoteAftClient client({server.endpoint()}, FastClient());

  auto writer = client.StartTransaction();
  ASSERT_TRUE(writer.ok());
  const WriteOp ops[] = {{"mk:1", "v1"}, {"mk:2", "v2"}, {"mk:3", "v3"}};
  ASSERT_TRUE(client.PutBatch(*writer, ops).ok());
  ASSERT_TRUE(client.Commit(*writer).ok());

  auto reader = client.StartTransaction();
  ASSERT_TRUE(reader.ok());
  const std::string keys[] = {"mk:1", "mk:404", "mk:3"};
  auto reads = client.MultiGet(*reader, keys);
  ASSERT_TRUE(reads.ok()) << reads.status().ToString();
  ASSERT_EQ(reads->size(), 3u);  // Positional, including the miss.
  EXPECT_EQ((*reads)[0].value.value(), "v1");
  EXPECT_FALSE((*reads)[1].value.has_value());
  EXPECT_EQ((*reads)[2].value.value(), "v3");
  EXPECT_TRUE(client.Abort(*reader).ok());
  server.Stop();
}

TEST_F(NetServiceTest, SemanticErrorsTravelVerbatim) {
  AftServiceServer server(node_);
  ASSERT_TRUE(server.Start().ok());
  RemoteAftClient client({server.endpoint()}, FastClient());

  // Commit of a transaction the node has never seen: the server-side
  // kFailedPrecondition must arrive unchanged, not as a transport error.
  net::RemoteTxnSession forged;
  forged.endpoint = 0;
  forged.txid = Uuid(123, 456);
  forged.started = true;
  auto committed = client.Commit(forged);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST_F(NetServiceTest, GarbageBytesDoNotKillTheServer) {
  AftServiceServer server(node_);
  ASSERT_TRUE(server.Start().ok());

  {
    auto raw = TcpConnect(server.endpoint(), std::chrono::seconds(2));
    ASSERT_TRUE(raw.ok());
    const std::string garbage = "GET / HTTP/1.1\r\nHost: not-aft\r\n\r\n";
    ASSERT_TRUE(raw->SendAll(garbage).ok());
    // The server drops the connection (the stream cannot be resynced).
    char byte;
    EXPECT_EQ(raw->RecvAll(&byte, 1).code(), StatusCode::kUnavailable);
  }

  // The server survives and serves well-formed clients.
  RemoteAftClient client({server.endpoint()}, FastClient());
  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(client.Put(*session, "k", "v").ok());
  ASSERT_TRUE(client.Commit(*session).ok());
  EXPECT_GE(server.stats().bad_frames.load(), 1u);
  server.Stop();
}

TEST(NetClientTest, TimesOutOnSilentServer) {
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  // Accept the connection, then never reply.
  std::thread sink([&listener] {
    auto accepted = listener->Accept();
    if (accepted.ok()) {
      char buffer[256];
      (void)accepted->RecvAll(buffer, sizeof(buffer));  // Swallow the request; EOF ends us.
    }
  });

  RemoteAftClientOptions options = FastClient();
  options.call_timeout = std::chrono::milliseconds(200);
  options.max_attempts = 1;
  RemoteAftClient client({NetEndpoint{"127.0.0.1", listener->port()}}, options);
  auto pong = client.Ping(0);
  ASSERT_FALSE(pong.ok());
  EXPECT_EQ(pong.status().code(), StatusCode::kTimeout);

  listener->Shutdown();
  sink.join();
}

TEST_F(NetServiceTest, PipelinedDeadlineExpiriesOnSilentServerAllReturnAndRecover) {
  // Regression: a caller whose deadline expired while the reader role was
  // free used to re-claim the role in a tight loop with the channel mutex
  // held (RunReader bounces straight off its own TimeLeft check) — the call
  // never returned and every other caller on the channel wedged behind the
  // mutex. And once every in-flight caller had abandoned its slot, no reader
  // was left to drain the queue, so the pipeline stayed occupied forever.
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  // Accept one connection and swallow its bytes forever, never replying.
  std::thread sink([&listener] {
    auto accepted = listener->Accept();
    if (accepted.ok()) {
      char byte;
      while (accepted->RecvAll(&byte, 1).ok()) {
      }
    }
  });

  RemoteAftClientOptions options = FastClient();
  options.call_timeout = std::chrono::milliseconds(300);
  options.max_attempts = 1;
  options.connections_per_endpoint = 1;  // Every caller shares one channel.
  options.max_inflight = 8;
  RemoteAftClient client({NetEndpoint{"127.0.0.1", port}}, options);

  constexpr size_t kCallers = 6;
  std::vector<Status> statuses(kCallers, Status::Ok());
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&client, &statuses, c] {
      statuses[c] = client.Ping(0).status();
    });
  }
  for (auto& t : callers) {
    t.join();  // Pre-fix this hung: one spinner held the channel mutex.
  }
  for (const Status& status : statuses) {
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(status.code() == StatusCode::kTimeout ||
                status.code() == StatusCode::kUnavailable)
        << status.ToString();
  }
  listener->Shutdown();
  sink.join();

  // The abandoned slots must not wedge the channel: against a real server on
  // the same port, the next call re-dials and succeeds on a clean stream.
  AftServiceServerOptions server_options;
  server_options.port = port;
  AftServiceServer server(node_, server_options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(client.Ping(0).ok());
  server.Stop();
}

TEST_F(NetServiceTest, ClientReconnectsAfterServerRestart) {
  auto first = std::make_unique<AftServiceServer>(node_);
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();
  RemoteAftClient client({first->endpoint()}, FastClient());
  EXPECT_TRUE(client.Ping(0).ok());

  first->Stop();
  first.reset();
  // The pooled connection is now dead AND the port is closed: the call fails
  // with a transport error after retries.
  EXPECT_FALSE(client.Ping(0).ok());

  // Same port, fresh server (simulates a restarted process). The client
  // re-dials transparently.
  AftServiceServerOptions options;
  options.port = port;
  AftServiceServer second(node_, options);
  ASSERT_TRUE(second.Start().ok());
  EXPECT_TRUE(client.Ping(0).ok());
  EXPECT_GE(client.stats().reconnects.load(), 1u);
  second.Stop();
}

// ---- Fault injection: server killed mid-commit ------------------------------
//
// The write-ordering invariant (§3.3): key versions are written BEFORE the
// commit record, so a node that dies between the two must leave NO visible
// dirty data — a second client reading after the crash sees nothing.

// Polls until `node` is down or 5 s pass: the client can see the torn
// connection before the crash hook's Kill() lands on the server's thread.
void AwaitDown(const AftNode& node) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (node.alive() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Kills the server after the commit's data write, before its record write,
// and stores the transaction's ID in `txid`. Then a recovered node over the
// same storage must serve NO value for "k": without a commit record the
// write never happened (write-ordering step 2 was not reached). With
// `spill` the write buffer sends "k" to its version object at Put, so a data
// write lands before the record; otherwise the payload rides in the record.
void KillServerMidCommitAndCheckRecovery(SimDynamo& storage, SimClock& clock, bool spill,
                                         Uuid* txid) {
  AftServiceServer* server_hook = nullptr;
  AftNodeOptions node_options;
  if (spill) {
    node_options.spill_threshold_bytes = 0;
  }
  // Crash AFTER the data write, BEFORE the commit record: the worst case for
  // dirty reads. The hook also tears the TCP connection, exactly as a kill -9
  // of the server process would.
  node_options.crash_hook = [&server_hook](CrashPoint point) {
    if (point == CrashPoint::kAfterDataWrite && server_hook != nullptr) {
      server_hook->AbandonConnections();
      return true;
    }
    return false;
  };
  AftNode node("aft-0", storage, clock, node_options);
  ASSERT_TRUE(node.Start().ok());
  AftServiceServer server(node);
  ASSERT_TRUE(server.Start().ok());
  server_hook = &server;

  RemoteAftClientOptions options = FastClient();
  options.call_timeout = std::chrono::seconds(2);
  options.max_attempts = 1;
  RemoteAftClient client({server.endpoint()}, options);

  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok());
  *txid = session->txid;
  ASSERT_TRUE(client.Put(*session, "k", "dirty").ok());
  auto committed = client.Commit(*session);
  // The client observes a failure — torn connection or the dying node's
  // kUnavailable — NEVER a successful commit.
  ASSERT_FALSE(committed.ok());
  AwaitDown(node);
  EXPECT_FALSE(node.alive());
  server_hook = nullptr;
  server.Stop();

  AftNode recovered("aft-1", storage, clock);
  ASSERT_TRUE(recovered.Start().ok());
  AftServiceServer recovered_server(recovered);
  ASSERT_TRUE(recovered_server.Start().ok());
  RemoteAftClient reader({recovered_server.endpoint()}, FastClient());
  auto reader_session = reader.StartTransaction();
  ASSERT_TRUE(reader_session.ok());
  auto read = reader.Get(*reader_session, "k");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->has_value());
  EXPECT_TRUE(reader.Abort(*reader_session).ok());
  recovered_server.Stop();
}

// A spilled write buffer sends the data before the commit; the commit's
// barrier waits for it, and the kill lands before the record.
TEST(NetFaultTest, ServerKilledMidCommitLeavesNoDirtyData) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  Uuid txid;
  ASSERT_NO_FATAL_FAILURE(
      KillServerMidCommitAndCheckRecovery(storage, clock, /*spill=*/true, &txid));
  // The data version reached storage (write-ordering step 1), and no record.
  EXPECT_TRUE(storage.Get(VersionStorageKey("k", txid)).ok());
  EXPECT_TRUE(storage.List(kCommitPrefix)->empty());
}

// Unspilled, the payload rides inside the record object, so the kill leaves
// no object at all.
TEST(NetFaultTest, ServerKilledMidInlineCommitLeavesNoObject) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  Uuid txid;
  ASSERT_NO_FATAL_FAILURE(
      KillServerMidCommitAndCheckRecovery(storage, clock, /*spill=*/false, &txid));
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());
  EXPECT_TRUE(storage.List(kCommitPrefix)->empty());
}

// ---- Event-loop server: pipelining, sequencing, backpressure ---------------

class EventLoopServerTest : public ::testing::Test {
 protected:
  EventLoopServerTest() : storage_(clock_, InstantDynamo()), node_("aft-0", storage_, clock_) {
    EXPECT_TRUE(node_.Start().ok());
  }

  SimClock clock_;
  SimDynamo storage_;
  AftNode node_;
  AftServiceServerOptions server_options_;
};

TEST_F(EventLoopServerTest, CommitReadCycle) {
  AftServiceServer server(node_, server_options_);
  ASSERT_TRUE(server.Start().ok());
  RemoteAftClient client({server.endpoint()}, FastClient());

  auto session = client.StartTransaction();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(client.Put(*session, "tm:k", "v").ok());
  ASSERT_TRUE(client.Commit(*session).ok());
  auto reader = client.StartTransaction();
  ASSERT_TRUE(reader.ok());
  auto read = client.Get(*reader, "tm:k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value(), "v");
  EXPECT_TRUE(client.Abort(*reader).ok());
  server.Stop();
}

// The pipelining contract at the wire level: N request frames written
// back-to-back on ONE connection come back as N responses in request order,
// even though the handlers run concurrently on the worker pool and finish in
// any order.
TEST_F(EventLoopServerTest, PipelinedRequestsAnswerInOrder) {
  AftServiceServer server(node_, server_options_);
  ASSERT_TRUE(server.Start().ok());

  // Commit distinct values the pipelined Gets will read back.
  constexpr size_t kDepth = 32;
  auto writer = node_.StartTransaction();
  ASSERT_TRUE(writer.ok());
  for (size_t i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(node_.Put(*writer, "pipe:" + std::to_string(i), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(node_.CommitTransaction(*writer).ok());

  auto reader_txn = node_.StartTransaction();
  ASSERT_TRUE(reader_txn.ok());

  auto raw = TcpConnect(server.endpoint(), std::chrono::seconds(2));
  ASSERT_TRUE(raw.ok());
  // One syscall, kDepth frames: the whole pipeline is on the wire before the
  // first response is read.
  std::string burst;
  for (size_t i = 0; i < kDepth; ++i) {
    net::GetRequest request;
    request.txid = *reader_txn;
    request.key = "pipe:" + std::to_string(i);
    burst += EncodeFrame(MessageType::kGet, request.Serialize());
  }
  ASSERT_TRUE(raw->SendAll(burst).ok());

  for (size_t i = 0; i < kDepth; ++i) {
    auto frame = ReadFrame(*raw);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status().ToString();
    ASSERT_EQ(frame->type, net::ResponseType(MessageType::kGet));
    auto response = net::GetResponse::Deserialize(frame->payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->read.value.has_value());
    EXPECT_EQ(*response->read.value, "value-" + std::to_string(i)) << "out of order at " << i;
  }
  ASSERT_TRUE(node_.AbortTransaction(*reader_txn).ok());
  server.Stop();
}

// Overlapping client calls multiplexed onto ONE pooled connection: every call
// succeeds and the server really saw a single connection (the pool did not
// silently widen).
TEST_F(EventLoopServerTest, ConcurrentCallersShareOneConnection) {
  AftServiceServer server(node_, server_options_);
  ASSERT_TRUE(server.Start().ok());
  RemoteAftClientOptions options = FastClient();
  options.connections_per_endpoint = 1;
  options.max_inflight = 64;
  RemoteAftClient client({server.endpoint()}, options);

  constexpr size_t kThreads = 8;
  constexpr int kOpsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, &failures, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto session = client.StartTransaction();
        if (!session.ok()) { ++failures; continue; }
        const std::string key = "mux:" + std::to_string(t) + ":" + std::to_string(i);
        if (!client.Put(*session, key, "v").ok() || !client.Commit(*session).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().connections_accepted.load(), 1u);
  server.Stop();
}

// Mid-pipeline connection kill: calls in flight when the stream tears fail
// with a TRANSPORT status (never a wrong answer, never a hang), and the same
// client reconnects cleanly for subsequent calls.
TEST_F(EventLoopServerTest, MidPipelineKillFailsOnlyInflightThenReconnects) {
  AftServiceServer server(node_, server_options_);
  ASSERT_TRUE(server.Start().ok());
  RemoteAftClientOptions options = FastClient();
  options.connections_per_endpoint = 1;
  options.max_inflight = 64;
  options.max_attempts = 1;  // No retries: a torn in-flight call must surface.
  options.call_timeout = std::chrono::seconds(5);
  RemoteAftClient client({server.endpoint()}, options);

  std::atomic<bool> stop{false};
  std::atomic<int> ok_calls{0};
  std::atomic<int> transport_failures{0};
  std::atomic<int> wrong_failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto pong = client.Ping(0);
        if (pong.ok()) {
          ++ok_calls;
        } else if (pong.status().code() == StatusCode::kUnavailable ||
                   pong.status().code() == StatusCode::kTimeout) {
          ++transport_failures;
        } else {
          ++wrong_failures;
        }
      }
    });
  }
  // Let the pipeline fill, tear every connection, let traffic resume, repeat.
  for (int kill = 0; kill < 3; ++kill) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.AbandonConnections();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_GT(ok_calls.load(), 0);
  EXPECT_EQ(wrong_failures.load(), 0);  // Failures are transport-coded only.
  // The SAME client object works after the kills (fresh dial on a live port).
  EXPECT_TRUE(client.Ping(0).ok());
  server.Stop();
}

// A response larger than the socket's send buffer leaves the worker's send
// partial; the loop finishes it on EPOLLOUT as the client reads slowly, and
// the small responses pipelined before and after it keep their places.
TEST_F(EventLoopServerTest, ResponseLargerThanSendBufferArrivesWholeAndInOrder) {
  server_options_.max_write_buffer_bytes = 1u << 20;  // The 4 MiB response pauses reads.
  AftServiceServer server(node_, server_options_);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kKeys = 64;
  constexpr size_t kValueBytes = 64 * 1024;
  auto value_of = [](size_t i) {
    return std::string(kValueBytes, static_cast<char>('a' + i % 26));
  };
  std::vector<std::string> keys;
  auto writer = node_.StartTransaction();
  ASSERT_TRUE(writer.ok());
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("big:" + std::to_string(i));
    ASSERT_TRUE(node_.Put(*writer, keys.back(), value_of(i)).ok());
  }
  ASSERT_TRUE(node_.Put(*writer, "small", "tiny").ok());
  ASSERT_TRUE(node_.CommitTransaction(*writer).ok());
  auto reader_txn = node_.StartTransaction();
  ASSERT_TRUE(reader_txn.ok());

  auto raw = TcpConnect(server.endpoint(), std::chrono::seconds(2));
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetRecvTimeout(std::chrono::seconds(10)).ok());
  net::GetRequest small;
  small.txid = *reader_txn;
  small.key = "small";
  net::MultiGetRequest big;
  big.txid = *reader_txn;
  big.keys = keys;
  ASSERT_TRUE(raw->SendAll(EncodeFrame(MessageType::kGet, small.Serialize()) +
                           EncodeFrame(MessageType::kMultiGet, big.Serialize()) +
                           EncodeFrame(MessageType::kGet, small.Serialize()))
                  .ok());

  // Read slowly: 16 KiB at a time, 1 ms apart, until three frames decode.
  std::string received;
  std::vector<Frame> frames;
  size_t consumed = 0;
  char chunk[16 * 1024];
  while (frames.size() < 3) {
    auto got = raw->RecvSome(chunk, sizeof(chunk));
    ASSERT_TRUE(got.ok()) << "after " << received.size() << " bytes: " << got.status().ToString();
    received.append(chunk, *got);
    while (frames.size() < 3) {
      Frame frame;
      auto n = net::DecodeFrameFromBuffer(std::string_view(received).substr(consumed), &frame);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (*n == 0) {
        break;
      }
      consumed += *n;
      frames.push_back(std::move(frame));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (size_t f : {0u, 2u}) {
    ASSERT_EQ(frames[f].type, net::ResponseType(MessageType::kGet)) << "frame " << f;
    auto response = net::GetResponse::Deserialize(frames[f].payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->read.value.value_or("?"), "tiny") << "frame " << f;
  }
  ASSERT_EQ(frames[1].type, net::ResponseType(MessageType::kMultiGet));
  auto response = net::MultiGetResponse::Deserialize(frames[1].payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->reads.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(response->reads[i].value == value_of(i)) << "key " << i;
  }
  EXPECT_EQ(consumed, received.size());  // Nothing beyond the three frames.
  ASSERT_TRUE(node_.AbortTransaction(*reader_txn).ok());
  server.Stop();
}

// With a pipeline depth of 4, a burst of requests pauses the connection's
// reads. The workers answer on an idle socket themselves, so the loop learns
// that the pipeline drained only from the wake a worker sends when it drains
// a paused connection; without it the burst stalls after the first frames.
TEST_F(EventLoopServerTest, PausedConnectionResumesWhenWorkersDrainIt) {
  server_options_.max_pipeline_depth = 4;
  AftServiceServer server(node_, server_options_);
  ASSERT_TRUE(server.Start().ok());

  auto raw = TcpConnect(server.endpoint(), std::chrono::seconds(2));
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetRecvTimeout(std::chrono::seconds(10)).ok());
  constexpr size_t kRequests = 256;
  std::string burst;
  for (size_t i = 0; i < kRequests; ++i) {
    burst += EncodeFrame(MessageType::kPing, net::PingRequest{}.Serialize());
  }
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(raw->SendAll(burst).ok());
  for (size_t i = 0; i < kRequests; ++i) {
    auto frame = ReadFrame(*raw);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status().ToString();
    ASSERT_EQ(frame->type, net::ResponseType(MessageType::kPing));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_GE(server.stats().backpressure_pauses.load(), 1u);
  server.Stop();
}

// ---- Server pool: blocking handlers ----------------------------------------
//
// A pool thread that serves a request may block (storage latency,
// fdatasync). These tests hold a commit handler on a latch and check that
// the rest of the server keeps going: other connections, and the frames
// pipelined behind the held commit on its own connection.

// Holds every commit at kBeforeDataWrite while armed, until Release().
class CommitGate {
 public:
  std::function<bool(CrashPoint)> Hook() {
    return [this](CrashPoint point) {
      if (point != CrashPoint::kBeforeDataWrite) {
        return false;
      }
      std::unique_lock<std::mutex> lock(mu_);
      if (!armed_) {
        return false;
      }
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !armed_; });
      return false;
    };
  }
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  // Waits up to 5 s for a commit to reach the gate.
  bool AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5), [this] { return held_ > 0; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

  // Releases the gate when it goes out of scope. Declared after the server,
  // so a failed assertion frees the held handler before Stop joins its thread.
  struct ReleaseOnExit {
    CommitGate& gate;
    ~ReleaseOnExit() { gate.Release(); }
  };

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  int held_ = 0;
};

class ServerPoolTest : public ::testing::Test {
 protected:
  ServerPoolTest()
      : storage_(clock_, InstantDynamo()), node_("aft-0", storage_, clock_, GatedOptions()) {
    EXPECT_TRUE(node_.Start().ok());
  }
  AftNodeOptions GatedOptions() {
    AftNodeOptions options;
    options.crash_hook = gate_.Hook();
    return options;
  }

  // Starts a transaction that wrote `key` and returns its Commit frame.
  std::string CommitFrameForNewWrite(const std::string& key) {
    auto txid = node_.StartTransaction();
    EXPECT_TRUE(txid.ok());
    EXPECT_TRUE(node_.Put(*txid, key, "held").ok());
    net::CommitRequest request;
    request.txid = *txid;
    return EncodeFrame(MessageType::kCommit, request.Serialize());
  }

  CommitGate gate_;
  SimClock clock_;
  SimDynamo storage_;
  AftNode node_;
};

// While one connection's commit is held, a Ping on each of eight other
// connections is answered within 1 s. A server that served requests on the
// thread watching a connection's socket would leave the connections that
// share that thread unanswered until the commit returned.
TEST_F(ServerPoolTest, SlowHandlerDoesNotStallOtherConnections) {
  AftServiceServer server(node_);
  ASSERT_TRUE(server.Start().ok());
  CommitGate::ReleaseOnExit release{gate_};
  gate_.Arm();
  auto held = TcpConnect(server.endpoint(), std::chrono::seconds(2));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->SendAll(CommitFrameForNewWrite("slow:k")).ok());
  ASSERT_TRUE(gate_.AwaitHeld());

  for (int i = 0; i < 8; ++i) {
    auto raw = TcpConnect(server.endpoint(), std::chrono::seconds(2));
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw->SetRecvTimeout(std::chrono::seconds(1)).ok());
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(raw->SendAll(EncodeFrame(MessageType::kPing, net::PingRequest{}.Serialize())).ok());
    auto frame = ReadFrame(*raw);
    ASSERT_TRUE(frame.ok()) << "ping on connection " << i << ": " << frame.status().ToString();
    EXPECT_EQ(frame->type, net::ResponseType(MessageType::kPing));
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  }

  gate_.Release();
  ASSERT_TRUE(held->SetRecvTimeout(std::chrono::seconds(5)).ok());
  auto committed = ReadFrame(*held);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  ASSERT_EQ(committed->type, net::ResponseType(MessageType::kCommit));
  auto response = net::CommitResponse::Deserialize(committed->payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  server.Stop();
}

// One connection sends a commit that is held, then kGets Gets. The Gets run
// on other pool threads while the commit waits (the node counts their reads
// before the release), and all responses still arrive in request order.
TEST_F(ServerPoolTest, PipelinedFramesBehindABlockedCommitStillRun) {
  constexpr size_t kGets = 16;
  auto writer = node_.StartTransaction();
  ASSERT_TRUE(writer.ok());
  for (size_t i = 0; i < kGets; ++i) {
    ASSERT_TRUE(node_.Put(*writer, "behind:" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(node_.CommitTransaction(*writer).ok());
  auto reader = node_.StartTransaction();
  ASSERT_TRUE(reader.ok());

  AftServiceServer server(node_);
  ASSERT_TRUE(server.Start().ok());
  CommitGate::ReleaseOnExit release{gate_};
  gate_.Arm();
  auto raw = TcpConnect(server.endpoint(), std::chrono::seconds(2));
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetRecvTimeout(std::chrono::seconds(5)).ok());
  std::string burst = CommitFrameForNewWrite("behind:held");
  for (size_t i = 0; i < kGets; ++i) {
    net::GetRequest request;
    request.txid = *reader;
    request.key = "behind:" + std::to_string(i);
    burst += EncodeFrame(MessageType::kGet, request.Serialize());
  }
  const uint64_t reads_before = node_.stats().reads.load();
  ASSERT_TRUE(raw->SendAll(burst).ok());
  ASSERT_TRUE(gate_.AwaitHeld());

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (node_.stats().reads.load() - reads_before < kGets &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(node_.stats().reads.load() - reads_before, kGets)
      << "Gets pipelined behind a held commit did not run";
  gate_.Release();

  auto committed = ReadFrame(*raw);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  ASSERT_EQ(committed->type, net::ResponseType(MessageType::kCommit));
  for (size_t i = 0; i < kGets; ++i) {
    auto frame = ReadFrame(*raw);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": " << frame.status().ToString();
    ASSERT_EQ(frame->type, net::ResponseType(MessageType::kGet));
    auto response = net::GetResponse::Deserialize(frame->payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->read.value.value_or("?"), "v" + std::to_string(i)) << "out of order at " << i;
  }
  ASSERT_TRUE(node_.AbortTransaction(*reader).ok());
  server.Stop();
}

// ---- Client backoff ---------------------------------------------------------

TEST(BackoffTest, FullJitterStaysWithinExponentialCap) {
  Rng rng(42);
  const Duration initial = Millis(10);
  const Duration cap = Millis(500);
  for (int attempt = 0; attempt < 12; ++attempt) {
    // Expected ceiling: min(cap, initial * 2^attempt).
    Duration ceiling = initial;
    for (int i = 0; i < attempt && ceiling < cap; ++i) {
      ceiling *= 2;
    }
    if (ceiling > cap) {
      ceiling = cap;
    }
    for (int trial = 0; trial < 200; ++trial) {
      const Duration d = net::BackoffWithJitter(initial, cap, attempt, rng);
      EXPECT_GE(d.count(), 0) << "attempt " << attempt;
      EXPECT_LE(d.count(), ceiling.count()) << "attempt " << attempt;
    }
  }
}

TEST(BackoffTest, JitterActuallyVaries) {
  // Full jitter exists to de-synchronize retry stampedes; a degenerate
  // implementation returning the ceiling (or zero) every time would pass the
  // bounds test but defeat the point.
  Rng rng(7);
  std::set<Duration::rep> distinct;
  for (int trial = 0; trial < 64; ++trial) {
    distinct.insert(net::BackoffWithJitter(Millis(10), Millis(500), 4, rng).count());
  }
  EXPECT_GT(distinct.size(), 8u);
}

// ---- TcpMulticastBus --------------------------------------------------------

ClusterOptions TcpManualCluster(size_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.transport = ClusterTransport::kTcp;
  options.start_background_threads = false;
  return options;
}

class TcpBusTest : public ::testing::Test {
 protected:
  TcpBusTest() : storage_(clock_, InstantDynamo()) {}

  TxnId CommitVia(AftNode& node, const std::string& key, const std::string& value) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(txid.ok());
    EXPECT_TRUE(node.Put(*txid, key, value).ok());
    auto committed = node.CommitTransaction(*txid);
    EXPECT_TRUE(committed.ok());
    return committed.ok() ? *committed : TxnId();
  }

  std::optional<std::string> ReadVia(AftNode& node, const std::string& key) {
    auto txid = node.StartTransaction();
    auto result = node.Get(*txid, key);
    EXPECT_TRUE(result.ok());
    (void)node.AbortTransaction(*txid);
    return result.ok() ? *result : std::nullopt;
  }

  SimClock clock_;
  SimDynamo storage_;
};

TEST_F(TcpBusTest, GossipDeliversCommitsOverSockets) {
  ClusterDeployment cluster(storage_, clock_, TcpManualCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_EQ(cluster.ServiceEndpoints().size(), 3u);

  CommitVia(*cluster.node(0), "k", "over-tcp");
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());
  cluster.bus().RunOnce();
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "over-tcp");
  EXPECT_EQ(ReadVia(*cluster.node(2), "k").value(), "over-tcp");
  EXPECT_EQ(cluster.bus().stats().delivery_errors.load(), 0u);
  // Supersedence pruning runs over the socket path too.
  CommitVia(*cluster.node(0), "p", "old");
  CommitVia(*cluster.node(0), "p", "new");
  cluster.bus().RunOnce();
  EXPECT_EQ(cluster.bus().stats().records_pruned.load(), 1u);
  EXPECT_EQ(ReadVia(*cluster.node(1), "p").value(), "new");
}

TEST_F(TcpBusTest, RemoteClientAgainstDeploymentEndpoints) {
  ClusterDeployment cluster(storage_, clock_, TcpManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  RemoteAftClient client(cluster.ServiceEndpoints(), FastClient());

  // Round-robin start: consecutive transactions land on different nodes, and
  // the session stays pinned to its endpoint.
  auto s0 = client.StartTransaction();
  auto s1 = client.StartTransaction();
  ASSERT_TRUE(s0.ok() && s1.ok());
  EXPECT_NE(s0->endpoint, s1->endpoint);
  ASSERT_TRUE(client.Put(*s0, "k", "from-remote").ok());
  ASSERT_TRUE(client.Commit(*s0).ok());
  EXPECT_TRUE(client.Abort(*s1).ok());

  cluster.bus().RunOnce();
  EXPECT_EQ(ReadVia(*cluster.node(0), "k").value(), "from-remote");
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "from-remote");
}

TEST_F(TcpBusTest, DeliveryFailuresAreCountedNotRetried) {
  ClusterDeployment cluster(storage_, clock_, TcpManualCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto& bus = static_cast<net::TcpMulticastBus&>(cluster.bus());

  // Receiver's socket dies (machine lost its network, node process fine).
  bus.KillEndpoint(cluster.node(1));
  CommitVia(*cluster.node(0), "k", "lost-on-the-wire");
  cluster.bus().RunOnce();
  EXPECT_GE(cluster.bus().stats().delivery_errors.load(), 1u);
  // The bus does NOT retry: node 1 is missing the record (the fault
  // manager's scan is the recovery path, exercised below).
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());
}

// One dead peer must cost only its own delivery: in the SAME gossip round,
// every healthy peer still receives the records (deliveries are concurrent
// and independently error-handled — a refused/timed-out peer is never
// serialized before, and never aborts, the others).
TEST_F(TcpBusTest, DeadPeerDoesNotDelayHealthyDelivery) {
  ClusterDeployment cluster(storage_, clock_, TcpManualCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  auto& bus = static_cast<net::TcpMulticastBus&>(cluster.bus());

  bus.KillEndpoint(cluster.node(2));  // Node 2's network died; 0 and 1 are fine.
  CommitVia(*cluster.node(0), "iso:k", "healthy-path");
  cluster.bus().RunOnce();

  // Same round: the healthy peer has the record, the dead one does not, and
  // the failure is visible in stats for the NEXT round's re-dial to clear.
  EXPECT_EQ(ReadVia(*cluster.node(1), "iso:k").value(), "healthy-path");
  EXPECT_FALSE(ReadVia(*cluster.node(2), "iso:k").has_value());
  EXPECT_GE(cluster.bus().stats().delivery_errors.load(), 1u);
}

// The kill-the-socket test: node 0 ACKs a commit to its client, then the
// whole machine dies — process AND socket — before any gossip round. The
// fault manager's liveness scan must recover the commit from storage (§4.2)
// with the transport running over real sockets.
TEST_F(TcpBusTest, KilledSocketCommitRecoveredFromStorage) {
  ClusterOptions options = TcpManualCluster(2);
  options.fault_manager.failure_detection_delay = Millis(10);
  ClusterDeployment cluster(storage_, clock_, options);
  ASSERT_TRUE(cluster.Start().ok());
  auto& bus = static_cast<net::TcpMulticastBus&>(cluster.bus());

  CommitVia(*cluster.node(0), "k", "acked");  // Client got its ACK.
  bus.KillEndpoint(cluster.node(0));          // Socket gone...
  cluster.KillNode(0);                        // ...process gone.

  cluster.bus().RunOnce();  // Gossip cannot drain the dead node.
  EXPECT_FALSE(ReadVia(*cluster.node(1), "k").has_value());

  // The commit record is in storage; past the liveness grace window the scan
  // finds it and notifies the survivors.
  clock_.Advance(std::chrono::seconds(5));
  EXPECT_EQ(cluster.fault_manager().RunLivenessScanOnce(), 1u);
  EXPECT_EQ(ReadVia(*cluster.node(1), "k").value(), "acked");
}

}  // namespace
}  // namespace aft

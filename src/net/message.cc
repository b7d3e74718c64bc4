#include "src/net/message.h"

namespace aft {
namespace net {

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what + " payload");
}

// Requires the reader to be fully consumed: trailing bytes mean the sender
// and receiver disagree about the encoding, which must not pass silently.
bool Finish(BinaryReader& reader) { return reader.AtEnd(); }

// ---- Shared encode bodies --------------------------------------------------
// One body per wire type, templated over the writer, instantiated for both
// BinaryWriter (legacy flat string) and ArenaWriter (segments). Serialize()
// and SerializeTo() below both run these, so their bytes cannot diverge —
// the wire-compat golden tests pin the equality down.

template <typename W>
void AdoptTxnBody(W& w, const AdoptTxnRequest& r) {
  EncodeUuid(w, r.txid);
}

template <typename W>
void GetBody(W& w, const GetRequest& r) {
  EncodeUuid(w, r.txid);
  w.PutString(r.key);
}

template <typename W>
void MultiGetBody(W& w, const MultiGetRequest& r) {
  EncodeUuid(w, r.txid);
  w.PutStringVector(r.keys);
}

template <typename W>
void PutBody(W& w, const PutRequest& r) {
  EncodeUuid(w, r.txid);
  w.PutString(r.key);
  w.PutString(r.value);
}

template <typename W>
void PutBatchBody(W& w, const PutBatchRequest& r) {
  EncodeUuid(w, r.txid);
  w.PutU32(static_cast<uint32_t>(r.ops.size()));
  for (const WriteOp& op : r.ops) {
    w.PutString(op.key);
    w.PutString(op.value);
  }
}

template <typename W>
void CommitBody(W& w, const CommitRequest& r) {
  EncodeUuid(w, r.txid);
}

template <typename W>
void AbortBody(W& w, const AbortRequest& r) {
  EncodeUuid(w, r.txid);
}

template <typename W>
void ApplyCommitsBody(W& w, const ApplyCommitsRequest& r) {
  w.PutU32(static_cast<uint32_t>(r.records.size()));
  for (const CommitRecordPtr& record : r.records) {
    w.PutString(record->Serialize());
  }
}

template <typename W>
void StartTxnResponseBody(W& w, const StartTxnResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    EncodeUuid(w, r.txid);
  }
}

template <typename W>
void GetResponseBody(W& w, const GetResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    EncodeVersionedRead(w, r.read);
  }
}

template <typename W>
void MultiGetResponseBody(W& w, const MultiGetResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    w.PutU32(static_cast<uint32_t>(r.reads.size()));
    for (const AftNode::VersionedRead& read : r.reads) {
      EncodeVersionedRead(w, read);
    }
  }
}

template <typename W>
void CommitResponseBody(W& w, const CommitResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    EncodeTxnId(w, r.id);
  }
}

template <typename W>
void ApplyCommitsResponseBody(W& w, const ApplyCommitsResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    w.PutU64(r.applied);
  }
}

template <typename W>
void PingResponseBody(W& w, const PingResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    w.PutString(r.node_id);
  }
}

template <typename W>
void GetMetricsResponseBody(W& w, const GetMetricsResponse& r, const Status& status) {
  EncodeStatus(w, status);
  if (status.ok()) {
    w.PutString(r.text);
  }
}

}  // namespace

// ---- Field helpers ---------------------------------------------------------

bool DecodeUuid(BinaryReader& reader, Uuid* out) {
  uint64_t hi = 0;
  uint64_t lo = 0;
  if (!reader.GetU64(&hi) || !reader.GetU64(&lo)) {
    return false;
  }
  *out = Uuid(hi, lo);
  return true;
}

bool DecodeTxnId(BinaryReader& reader, TxnId* out) {
  int64_t ts = 0;
  Uuid uuid;
  if (!reader.GetI64(&ts) || !DecodeUuid(reader, &uuid)) {
    return false;
  }
  *out = TxnId(ts, uuid);
  return true;
}

bool DecodeStatus(BinaryReader& reader, Status* out) {
  uint8_t code = 0;
  std::string message;
  if (!reader.GetU8(&code) || !reader.GetString(&message)) {
    return false;
  }
  if (code > static_cast<uint8_t>(StatusCode::kAlreadyExists)) {
    return false;
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

bool DecodeVersionedRead(BinaryReader& reader, AftNode::VersionedRead* out) {
  uint8_t has_value = 0;
  if (!reader.GetU8(&has_value)) {
    return false;
  }
  if (has_value) {
    std::string value;
    if (!reader.GetString(&value)) {
      return false;
    }
    out->value = std::move(value);
  } else {
    out->value.reset();
  }
  if (!DecodeTxnId(reader, &out->version)) {
    return false;
  }
  uint8_t has_record = 0;
  if (!reader.GetU8(&has_record)) {
    return false;
  }
  out->record = nullptr;
  if (has_record) {
    // Parse the nested record in place over the enclosing payload — the
    // CommitRecord's own fields copy out, the intermediate blob does not.
    std::string_view bytes;
    if (!reader.GetStringView(&bytes)) {
      return false;
    }
    auto record = CommitRecord::Deserialize(bytes);
    if (!record.ok()) {
      return false;
    }
    out->record = std::make_shared<const CommitRecord>(std::move(record).value());
  }
  return true;
}

// ---- Requests --------------------------------------------------------------

std::string StartTxnRequest::Serialize() const { return std::string(); }
void StartTxnRequest::SerializeTo(ArenaWriter&) const {}

Result<StartTxnRequest> StartTxnRequest::Deserialize(std::string_view bytes) {
  if (!bytes.empty()) {
    return Malformed("StartTxn");
  }
  return StartTxnRequest{};
}

std::string AdoptTxnRequest::Serialize() const {
  BinaryWriter writer;
  AdoptTxnBody(writer, *this);
  return std::move(writer).TakeData();
}
void AdoptTxnRequest::SerializeTo(ArenaWriter& writer) const { AdoptTxnBody(writer, *this); }

Result<AdoptTxnRequest> AdoptTxnRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  AdoptTxnRequest request;
  if (!DecodeUuid(reader, &request.txid) || !Finish(reader)) {
    return Malformed("AdoptTxn");
  }
  return request;
}

std::string GetRequest::Serialize() const {
  BinaryWriter writer;
  GetBody(writer, *this);
  return std::move(writer).TakeData();
}
void GetRequest::SerializeTo(ArenaWriter& writer) const { GetBody(writer, *this); }

Result<GetRequest> GetRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  GetRequest request;
  if (!DecodeUuid(reader, &request.txid) || !reader.GetString(&request.key) || !Finish(reader)) {
    return Malformed("Get");
  }
  return request;
}

std::string MultiGetRequest::Serialize() const {
  BinaryWriter writer;
  MultiGetBody(writer, *this);
  return std::move(writer).TakeData();
}
void MultiGetRequest::SerializeTo(ArenaWriter& writer) const { MultiGetBody(writer, *this); }

Result<MultiGetRequest> MultiGetRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  MultiGetRequest request;
  if (!DecodeUuid(reader, &request.txid) || !reader.GetStringVector(&request.keys) ||
      !Finish(reader)) {
    return Malformed("MultiGet");
  }
  return request;
}

std::string PutRequest::Serialize() const {
  BinaryWriter writer;
  PutBody(writer, *this);
  return std::move(writer).TakeData();
}
void PutRequest::SerializeTo(ArenaWriter& writer) const { PutBody(writer, *this); }

Result<PutRequest> PutRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  PutRequest request;
  if (!DecodeUuid(reader, &request.txid) || !reader.GetString(&request.key) ||
      !reader.GetString(&request.value) || !Finish(reader)) {
    return Malformed("Put");
  }
  return request;
}

std::string PutBatchRequest::Serialize() const {
  BinaryWriter writer;
  PutBatchBody(writer, *this);
  return std::move(writer).TakeData();
}
void PutBatchRequest::SerializeTo(ArenaWriter& writer) const { PutBatchBody(writer, *this); }

Result<PutBatchRequest> PutBatchRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  PutBatchRequest request;
  uint32_t count = 0;
  if (!DecodeUuid(reader, &request.txid) || !reader.GetU32(&count)) {
    return Malformed("PutBatch");
  }
  // Each op carries two length-prefixed strings (>= 8 bytes); a count the
  // remaining payload cannot back is corrupt — reject before reserving.
  if (count > reader.remaining() / 8) {
    return Malformed("PutBatch");
  }
  request.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WriteOp op;
    if (!reader.GetString(&op.key) || !reader.GetString(&op.value)) {
      return Malformed("PutBatch");
    }
    request.ops.push_back(std::move(op));
  }
  if (!Finish(reader)) {
    return Malformed("PutBatch");
  }
  return request;
}

std::string CommitRequest::Serialize() const {
  BinaryWriter writer;
  CommitBody(writer, *this);
  return std::move(writer).TakeData();
}
void CommitRequest::SerializeTo(ArenaWriter& writer) const { CommitBody(writer, *this); }

Result<CommitRequest> CommitRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  CommitRequest request;
  if (!DecodeUuid(reader, &request.txid) || !Finish(reader)) {
    return Malformed("Commit");
  }
  return request;
}

std::string AbortRequest::Serialize() const {
  BinaryWriter writer;
  AbortBody(writer, *this);
  return std::move(writer).TakeData();
}
void AbortRequest::SerializeTo(ArenaWriter& writer) const { AbortBody(writer, *this); }

Result<AbortRequest> AbortRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  AbortRequest request;
  if (!DecodeUuid(reader, &request.txid) || !Finish(reader)) {
    return Malformed("Abort");
  }
  return request;
}

std::string ApplyCommitsRequest::Serialize() const {
  BinaryWriter writer;
  ApplyCommitsBody(writer, *this);
  return std::move(writer).TakeData();
}
void ApplyCommitsRequest::SerializeTo(ArenaWriter& writer) const {
  ApplyCommitsBody(writer, *this);
}

Result<ApplyCommitsRequest> ApplyCommitsRequest::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  uint32_t count = 0;
  if (!reader.GetU32(&count)) {
    return Malformed("ApplyCommits");
  }
  if (count > reader.remaining() / 4) {  // >= one length prefix per record
    return Malformed("ApplyCommits");
  }
  ApplyCommitsRequest request;
  request.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    // In-place nested parse: the record blob is bounds-checked as a view of
    // the enclosing payload, never copied out first.
    std::string_view record_bytes;
    if (!reader.GetStringView(&record_bytes)) {
      return Malformed("ApplyCommits");
    }
    auto record = CommitRecord::Deserialize(record_bytes);
    if (!record.ok()) {
      return record.status();
    }
    request.records.push_back(std::make_shared<const CommitRecord>(std::move(record).value()));
  }
  if (!Finish(reader)) {
    return Malformed("ApplyCommits");
  }
  return request;
}

std::string PingRequest::Serialize() const { return std::string(); }
void PingRequest::SerializeTo(ArenaWriter&) const {}

Result<PingRequest> PingRequest::Deserialize(std::string_view bytes) {
  if (!bytes.empty()) {
    return Malformed("Ping");
  }
  return PingRequest{};
}

std::string GetMetricsRequest::Serialize() const { return std::string(); }
void GetMetricsRequest::SerializeTo(ArenaWriter&) const {}

Result<GetMetricsRequest> GetMetricsRequest::Deserialize(std::string_view bytes) {
  if (!bytes.empty()) {
    return Malformed("GetMetrics");
  }
  return GetMetricsRequest{};
}

// ---- Responses -------------------------------------------------------------

std::string StartTxnResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  StartTxnResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void StartTxnResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  StartTxnResponseBody(writer, *this, status);
}

Result<StartTxnResponse> StartTxnResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("StartTxn response");
  }
  if (!status.ok()) {
    return status;
  }
  StartTxnResponse response;
  if (!DecodeUuid(reader, &response.txid) || !Finish(reader)) {
    return Malformed("StartTxn response");
  }
  return response;
}

std::string GetResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  GetResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void GetResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  GetResponseBody(writer, *this, status);
}

Result<GetResponse> GetResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("Get response");
  }
  if (!status.ok()) {
    return status;
  }
  GetResponse response;
  if (!DecodeVersionedRead(reader, &response.read) || !Finish(reader)) {
    return Malformed("Get response");
  }
  return response;
}

std::string MultiGetResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  MultiGetResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void MultiGetResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  MultiGetResponseBody(writer, *this, status);
}

Result<MultiGetResponse> MultiGetResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("MultiGet response");
  }
  if (!status.ok()) {
    return status;
  }
  uint32_t count = 0;
  if (!reader.GetU32(&count)) {
    return Malformed("MultiGet response");
  }
  // A VersionedRead is at least two flag bytes plus a TxnId (26 bytes).
  if (count > reader.remaining() / 26) {
    return Malformed("MultiGet response");
  }
  MultiGetResponse response;
  response.reads.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AftNode::VersionedRead read;
    if (!DecodeVersionedRead(reader, &read)) {
      return Malformed("MultiGet response");
    }
    response.reads.push_back(std::move(read));
  }
  if (!Finish(reader)) {
    return Malformed("MultiGet response");
  }
  return response;
}

std::string CommitResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  CommitResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void CommitResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  CommitResponseBody(writer, *this, status);
}

Result<CommitResponse> CommitResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("Commit response");
  }
  if (!status.ok()) {
    return status;
  }
  CommitResponse response;
  if (!DecodeTxnId(reader, &response.id) || !Finish(reader)) {
    return Malformed("Commit response");
  }
  return response;
}

std::string ApplyCommitsResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  ApplyCommitsResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void ApplyCommitsResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  ApplyCommitsResponseBody(writer, *this, status);
}

Result<ApplyCommitsResponse> ApplyCommitsResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("ApplyCommits response");
  }
  if (!status.ok()) {
    return status;
  }
  ApplyCommitsResponse response;
  if (!reader.GetU64(&response.applied) || !Finish(reader)) {
    return Malformed("ApplyCommits response");
  }
  return response;
}

std::string PingResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  PingResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void PingResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  PingResponseBody(writer, *this, status);
}

Result<PingResponse> PingResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("Ping response");
  }
  if (!status.ok()) {
    return status;
  }
  PingResponse response;
  if (!reader.GetString(&response.node_id) || !Finish(reader)) {
    return Malformed("Ping response");
  }
  return response;
}

std::string GetMetricsResponse::Serialize(const Status& status) const {
  BinaryWriter writer;
  GetMetricsResponseBody(writer, *this, status);
  return std::move(writer).TakeData();
}
void GetMetricsResponse::SerializeTo(ArenaWriter& writer, const Status& status) const {
  GetMetricsResponseBody(writer, *this, status);
}

Result<GetMetricsResponse> GetMetricsResponse::Deserialize(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status)) {
    return Malformed("GetMetrics response");
  }
  if (!status.ok()) {
    return status;
  }
  GetMetricsResponse response;
  if (!reader.GetString(&response.text) || !Finish(reader)) {
    return Malformed("GetMetrics response");
  }
  return response;
}

std::string SerializeEmptyResponse(const Status& status) {
  BinaryWriter writer;
  EncodeStatus(writer, status);
  return std::move(writer).TakeData();
}

void SerializeEmptyResponseTo(ArenaWriter& writer, const Status& status) {
  EncodeStatus(writer, status);
}

Status DeserializeEmptyResponse(std::string_view bytes) {
  BinaryReader reader(bytes);
  Status status;
  if (!DecodeStatus(reader, &status) || !reader.AtEnd()) {
    return Status::InvalidArgument("malformed status-only response payload");
  }
  return status;
}

}  // namespace net
}  // namespace aft

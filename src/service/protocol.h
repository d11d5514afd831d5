// Wire protocol of the campaign daemon (`twm_cli serve`).
//
// JSON-lines both ways over one TCP connection: every frame is exactly one
// '\n'-terminated JSON object.  Requests (client -> server):
//
//   {"type":"submit","spec":{...CampaignSpec...}}   run (or replay) a campaign
//   {"type":"ping"}                                 liveness probe
//   {"type":"stats"}                                service + cache counters
//   {"type":"shutdown"}                             stop the daemon
//
// Responses (server -> client):
//
//   submit    the campaign's JSON-lines record stream exactly as the
//             api::JsonLinesSink emits it — campaign_begin, unit*,
//             campaign_end — followed by one service-level
//             {"type":"campaign_stats","cells":M,"cached":K,"simulated":S,
//              "faults_replayed":F,"cancelled":C,"sends":N} frame whose
//             counters prove how much of the campaign was served from the
//             result cache.  `sends` counts the send() calls that carried
//             the record stream (this frame excluded): records are flushed
//             per batch — one scheduler round live, one cell replayed — in
//             sends of at most 64 KiB, so N stays near bytes / 64 KiB +
//             batches, not one per record.
//   ping      {"type":"pong"}
//   stats     {"type":"stats","campaigns":..,"cancelled":..,
//              "frames_rejected":..,"cache":{...}}
//   shutdown  {"type":"bye"} and the daemon exits its accept loop.
//
// Errors come back typed (api/error.h taxonomy) as
// {"type":"error","scope":"frame"|"spec"|"io"|"resource"|"timeout"|"engine",
// "retryable":true|false,"message":...,
// "errors":[{"path":..,"message":..},...]?}.  `retryable` means the failure
// looks transient — resubmitting the identical spec is always idempotent
// (cached cells replay with simulated:0), so a client may retry exactly
// when that flag is set (`twm_cli submit --retries` does).  A FRAME error
// (malformed JSON, nesting bomb, oversized line, unknown type, missing
// spec) also closes the connection — a peer that cannot frame correctly is
// not negotiated with.  A SPEC error (well-formed frame, semantically
// invalid campaign) keeps the connection open for a corrected resubmit, and
// an idle client (ServerConfig.idle_timeout_ms) gets a retryable "timeout"
// error before the server hangs up.
//
// Input hardening, because the peer is untrusted: one frame is capped at
// kMaxFrameBytes, the JSON parser caps container nesting (api/json.h), and
// numbers/strings are validated by the same SpecReader every other spec
// surface uses.
#ifndef TWM_SERVICE_PROTOCOL_H
#define TWM_SERVICE_PROTOCOL_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "api/error.h"
#include "api/spec.h"

namespace twm::service {

// Upper bound on one request line (a submit frame carrying a spec with a
// large seed list fits comfortably; a gigabyte "line" never allocates).
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

struct Frame {
  enum class Kind { Submit, Ping, Stats, Shutdown };
  Kind kind = Kind::Ping;
  api::CampaignSpec spec;  // Submit only
};

// Outcome of parsing one request line.  `frame` is set on success;
// otherwise `error` carries the human-readable reason and, for structural
// spec problems, the offending field paths.
struct ParsedFrame {
  std::optional<Frame> frame;
  std::string error;
  std::vector<api::SpecError> spec_errors;

  bool ok() const { return frame.has_value(); }
};

// Parses one request line (without its trailing '\n').  Never throws:
// malformed JSON, over-deep nesting, unknown frame types and structurally
// broken specs all come back as ParsedFrame.error.
ParsedFrame parse_frame(const std::string& line);

// Request-frame assembly for clients (twm_cli submit, tests).
std::string submit_frame(const api::CampaignSpec& spec);
std::string ping_frame();
std::string stats_frame();
std::string shutdown_frame();

// Response-frame assembly for the server.  `spec_errors` may be empty.
// Frame/spec errors are never retryable (the request itself is wrong).
std::string error_frame(const std::string& scope, const std::string& message,
                        const std::vector<api::SpecError>& spec_errors = {},
                        bool retryable = false);

// Typed-error form: scope = to_string(e.category).
std::string error_frame(const api::Error& e);

// Parses an error frame's retryability on the client side; nullopt when
// `line` is not an error frame at all (callers then treat the response by
// its own type).  Tolerates pre-typed frames without "retryable" (false).
struct ErrorInfo {
  std::string scope;
  bool retryable = false;
  std::string message;
};
std::optional<ErrorInfo> parse_error_frame(const std::string& line);

}  // namespace twm::service

#endif  // TWM_SERVICE_PROTOCOL_H

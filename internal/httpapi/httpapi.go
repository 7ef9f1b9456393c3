// Package httpapi holds the conventions shared by every HTTP surface of
// the system (webiface serving, tracking, fleet control plane): the API
// version tag, the JSON error envelope, and tiny write/decode helpers.
//
// Every error response is the envelope
//
//	{"error": {"code": "bad_request", "message": "..."}}
//
// with a machine-readable code from the Code* constants and a
// human-readable message. Success responses are endpoint-specific JSON.
package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
)

// Version is the current API version. All routes are mounted under
// "/<Version>/" only — the unversioned aliases of the first versioned
// release are gone and 404 like any unknown path. Health endpoints
// report it as "api_version".
const Version = "v1"

// Error codes shared across services.
const (
	CodeBadRequest      = "bad_request"
	CodeNotFound        = "not_found"
	CodeBudgetExhausted = "budget_exhausted"
	CodeUnavailable     = "unavailable"
	CodeInternal        = "internal"
	// CodeConflict rejects a request that contradicts current state: a
	// double freeze or stale publish in the shard epoch handshake, a
	// duplicate fleet task ID. Typical status 409.
	CodeConflict = "conflict"
)

// Error is the machine-readable error payload inside the envelope.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface so decoded envelopes can travel as
// Go errors client-side.
func (e *Error) Error() string {
	if e.Message == "" {
		return e.Code
	}
	return e.Code + ": " + e.Message
}

// envelope is the wire shape of every error response.
type envelope struct {
	Error Error `json:"error"`
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the JSON error envelope with the given status code.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, envelope{Error: Error{Code: code, Message: message}})
}

// DecodeError decodes an error envelope from a response body. ok reports
// whether the body actually carried one (legacy plain-text bodies and
// empty bodies return ok=false).
func DecodeError(body io.Reader) (Error, bool) {
	var env envelope
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		return Error{}, false
	}
	if env.Error.Code == "" && env.Error.Message == "" {
		return Error{}, false
	}
	return env.Error, true
}

// maxDrain bounds how much of an unread response body DrainClose reads
// to save the connection; past it, closing the connection is cheaper.
const maxDrain = 64 << 10

// DrainClose reads what is left of a response body, up to a bound, and
// closes it. net/http reuses a keep-alive connection only when the body
// was read to EOF, which a JSON decoder that stops at the end of its
// value never does.
func DrainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	_ = body.Close()
}

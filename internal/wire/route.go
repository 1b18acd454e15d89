package wire

import "strings"

// ContentType is the HTTP media type of a request body in this format.
// Graph-carrying endpoints accept it interchangeably with graph JSON.
const ContentType = "application/x-mia-wire"

// IsContentType reports whether a Content-Type header value declares the
// wire media type: parameters after ';' are ignored and surrounding
// whitespace is trimmed, so "application/x-mia-wire ;v=1" qualifies. Shards
// and routers both decide with this one function, so a body is wire on
// every hop or on none.
func IsContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentType
}

// RouteHeader is the HTTP header a shard-aware client may set to the
// canonical graph fingerprint of the request body. It is a routing hint for
// the multi-node tier: a router that finds it skips decoding the body to
// place the request on the ring. It is never trusted for anything beyond
// placement — every shard computes the true fingerprint from the body it
// ingests, so a wrong hint costs cache locality (the request lands on a
// shard that is not warm for the graph), never correctness.
const RouteHeader = "X-Mia-Fingerprint"

// BlobFingerprint returns the canonical graph fingerprint of a wire blob —
// the same string a JSON analyze of the equivalent graph reports — without
// compiling it. Routers use it to place wire-ingest requests whose client
// did not send RouteHeader; the blob is fully decoded and validated, so a
// malformed body fails here instead of on the shard.
func BlobFingerprint(data []byte) (string, error) {
	rg, err := Decode(data)
	if err != nil {
		return "", err
	}
	return rg.Fingerprint(), nil
}

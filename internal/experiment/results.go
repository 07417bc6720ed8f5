package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
)

// The JSONL checkpoint format: a header line carrying the full normalized
// Spec, then one PointResult per line in canonical grid order (Spec.Points
// order). Because the writer only ever appends the next point in that order,
// a valid file is always a prefix of the full study — which is what lets a
// resumed run skip the prefix and still produce a file byte-identical to an
// uninterrupted one. The header makes resume reject not just a different
// grid but any parameter drift (slots, seed, replicas, warmup): a checkpoint
// is only ever extended by the exact study that started it. The only damage
// a kill can cause is a partial final line, which loadResults detects and
// the runner truncates before appending.

// checkpointVersion is the JSONL checkpoint schema version this build
// writes and reads. History:
//
//	v1 — header {"spec": ...}, no version field; replica seeds derived
//	     from the point's grid index.
//	v2 — header gains "v"; replica seeds derive from the point's content
//	     identity (resultcache), so the same physical point seeds
//	     identically in any study. A v1 file extended by a v2 build would
//	     silently mix the two derivations, so cross-version resume is
//	     refused with an explicit error.
const checkpointVersion = 2

// resultsHeader is the first line of a checkpoint file.
type resultsHeader struct {
	// Version is the checkpoint schema version; absent (0) in files
	// written before versioning, which are read as v1.
	Version int   `json:"v,omitempty"`
	Spec    *Spec `json:"spec"`
}

// appendHeader writes the spec header line of a fresh checkpoint.
func appendHeader(w io.Writer, spec Spec) error {
	b, err := json.Marshal(resultsHeader{Version: checkpointVersion, Spec: &spec})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// loadResults reads the checkpoint at path and validates its header against
// the normalized spec. It returns the recorded prefix of points, the byte
// offset where valid content ends (a partial trailing line from a killed run
// lies beyond it and should be truncated), and whether the spec header was
// present — when it is not (fresh, missing, or truncated-at-header file),
// the caller truncates to offset 0 and writes one. A missing file is an
// empty checkpoint. RunStudy validates the points themselves as it replays
// them against the batches it recomputes.
func loadResults(path string, spec Spec) (_ []PointResult, end int64, hasHeader bool, _ error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	var out []PointResult
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated tail: a line cut mid-write by a kill. The caller
			// truncates it away and re-runs from there.
			break
		}
		line := data[off : off+nl]
		if !hasHeader {
			var h resultsHeader
			if jerr := json.Unmarshal(line, &h); jerr != nil || h.Spec == nil {
				return nil, 0, false, fmt.Errorf("experiment: results file %s has no spec header line", path)
			}
			if v := max(h.Version, 1); v != checkpointVersion {
				return nil, 0, false, fmt.Errorf(
					"experiment: results file %s was written with checkpoint schema v%d, but this build reads v%d; finish it with a matching build or start a fresh results file",
					path, v, checkpointVersion)
			}
			if !reflect.DeepEqual(*h.Spec, spec) {
				return nil, 0, false, fmt.Errorf("experiment: results file %s was started by a different study: recorded spec %+v, running spec %+v",
					path, *h.Spec, spec)
			}
			hasHeader = true
			off += nl + 1
			end = int64(off)
			continue
		}
		var rec PointResult
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			return nil, 0, false, fmt.Errorf("experiment: corrupt results file %s at byte %d: %v", path, off, jerr)
		}
		out = append(out, rec)
		off += nl + 1
		end = int64(off)
	}
	return out, end, hasHeader, nil
}

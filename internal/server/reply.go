package server

// Streamed replies for the two node-bearing endpoints. A /v1/sweep or
// /v1/sweep/intervals body is written one workload at a time through a
// pooled buffer, and its bytes are exactly what json.Encoder with
// SetIndent("", "  ") writes for the SweepResponse or
// IntervalSweepResponse value: everything but the per-node map is
// encoded by encoding/json itself, and the map is appended from the
// dense per-node rows in SeqIndex().Sorted order (the order
// encoding/json sorts map keys in), with keys quoted by json.Marshal
// and floats formatted by encoding/json's rule (appendFloat).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"seqavf/internal/core"
	"seqavf/internal/sweep"
)

// streamedReply is a success body that writes itself (see serve).
type streamedReply interface {
	writeJSON(w io.Writer) error
}

// nodeKeys is a design's sequential-node keys in reply order.
type nodeKeys struct {
	// sorted is SeqIndex().Sorted: node positions ordered by key.
	sorted []int
	// quoted[j] is the JSON string of node sorted[j]'s key.
	quoted [][]byte
}

func newNodeKeys(idx *core.SeqIndex) *nodeKeys {
	k := &nodeKeys{sorted: idx.Sorted, quoted: make([][]byte, len(idx.Sorted))}
	for j, i := range idx.Sorted {
		// Marshal quotes map keys and strings alike (HTML-escaped, as
		// the encoder's default); a string cannot fail to marshal.
		k.quoted[j], _ = json.Marshal(idx.Nodes[i].Key)
	}
	return k
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation that round-trips, in 'e' form when |f| is outside
// [1e-6, 1e21), with a one-digit negative exponent's leading zero
// dropped (1e-07 is written 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// replyBuf is one pooled reply chunk: enc encodes into b, and the node
// maps append to b directly.
type replyBuf struct {
	b   []byte
	enc *json.Encoder
}

func (r *replyBuf) Write(p []byte) (int, error) {
	r.b = append(r.b, p...)
	return len(p), nil
}

var replyBufs = sync.Pool{New: func() any {
	r := new(replyBuf)
	r.enc = json.NewEncoder(r)
	return r
}}

// encode appends v indented at prefix, without the encoder's trailing
// newline.
func (r *replyBuf) encode(v any, prefix string) error {
	r.enc.SetIndent(prefix, "  ")
	if err := r.enc.Encode(v); err != nil {
		return err
	}
	r.b = r.b[:len(r.b)-1]
	return nil
}

// Indentation of a result object in the "results" list, and of its
// members.
const (
	itemIndent   = "\n    "
	memberIndent = "\n      "
)

// nodes reopens the result object just encoded for a last "seqavf"
// member, where encoding/json writes it, and appends each node's key in
// key order with value(n) for node n, then closes both objects.
func (r *replyBuf) nodes(keys *nodeKeys, value func(n int) error) error {
	r.b = append(r.b[:len(r.b)-len(itemIndent)-1], ","+memberIndent+`"seqavf": {`...)
	for j, n := range keys.sorted {
		if j > 0 {
			r.b = append(r.b, ',')
		}
		r.b = append(r.b, memberIndent+"  "...)
		r.b = append(r.b, keys.quoted[j]...)
		r.b = append(r.b, ": "...)
		if err := value(n); err != nil {
			return err
		}
	}
	r.b = append(r.b, memberIndent+"}"+itemIndent+"}"...)
	return nil
}

// float appends f by encoding/json's rule; a NaN or infinity fails.
func (r *replyBuf) float(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	r.b = appendFloat(r.b, f)
	return nil
}

// writeResults writes head, whose "results" member is an empty list and
// its last member, with n results spliced into that list: result(buf, i)
// appends result i. Each result is written to w on its own, and the
// first failure stops the reply.
func writeResults(w io.Writer, head any, n int, result func(buf *replyBuf, i int) error) error {
	buf := replyBufs.Get().(*replyBuf)
	buf.b = buf.b[:0]
	defer replyBufs.Put(buf)
	if err := buf.encode(head, ""); err != nil {
		return err
	}
	const empty = "[]\n}"
	if !bytes.HasSuffix(buf.b, []byte(empty)) {
		return fmt.Errorf("server: reply head does not end in an empty results list")
	}
	if n == 0 {
		_, err := w.Write(append(buf.b, '\n'))
		return err
	}
	buf.b = append(buf.b[:len(buf.b)-len(empty)], '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.b = append(buf.b, ',')
		}
		buf.b = append(buf.b, itemIndent...)
		if err := result(buf, i); err != nil {
			return err
		}
		if _, err := w.Write(buf.b); err != nil {
			return err
		}
		buf.b = buf.b[:0]
	}
	_, err := w.Write(append(buf.b, "\n  ]\n}\n"...))
	return err
}

// sweepReply is a POST /v1/sweep body.
type sweepReply struct {
	design string
	batch  *sweep.SummaryBatch
	keys   *nodeKeys // the design's keys when the batch has node rows
}

// WriteSweepResponse writes the SweepResponse of a summarized batch to
// w: every workload's design summary and, when the batch was summarized
// with nodes, its per-sequential-node seqAVFs. The bytes are the POST
// /v1/sweep body.
func WriteSweepResponse(w io.Writer, design string, batch *sweep.SummaryBatch) error {
	r := sweepReply{design: design, batch: batch}
	if batch.SeqAVF != nil {
		r.keys = newNodeKeys(batch.Plan.Analyzer.SeqIndex())
	}
	return r.writeJSON(w)
}

func (r sweepReply) writeJSON(w io.Writer) error {
	b := r.batch
	head := SweepResponse{
		Design:    r.design,
		Workloads: len(b.Summaries),
		Plan:      b.Plan.Stats(),
		ElapsedMS: float64(b.Elapsed.Microseconds()) / 1e3,
		PerSec:    b.WorkloadsPerSec(),
		Results:   []WorkloadResult{},
	}
	return writeResults(w, head, len(b.Summaries), func(buf *replyBuf, i int) error {
		if err := buf.encode(WorkloadResult{Name: b.Names[i], Summary: b.Summaries[i]}, itemIndent[1:]); err != nil {
			return err
		}
		if b.SeqAVF == nil || len(b.SeqAVF[i]) == 0 {
			return nil
		}
		row := b.SeqAVF[i]
		return buf.nodes(r.keys, func(n int) error { return buf.float(row[n]) })
	})
}

// intervalReply is a POST /v1/sweep/intervals body. It holds the
// batch's reported values, not the batch: the per-window AVF vectors
// are garbage before the body is written.
type intervalReply struct {
	head    IntervalSweepResponse    // with an empty Results list
	results []IntervalWorkloadResult // without SeqAVF
	series  [][][]float64            // series[i] is workload i's NodeSeries; nil without nodes
	keys    *nodeKeys                // the design's keys; nil without nodes
}

// WriteIntervalSweepResponse writes the IntervalSweepResponse of an
// evaluated interval batch to w: every workload's window geometry,
// chip-AVF series and peak statistics and, with nodes, its
// per-sequential-node series. The bytes are the POST
// /v1/sweep/intervals body.
func WriteIntervalSweepResponse(w io.Writer, design string, batch *sweep.IntervalBatch, nodes bool) error {
	var keys *nodeKeys
	if nodes {
		keys = newNodeKeys(batch.Plan.Analyzer.SeqIndex())
	}
	return newIntervalReply(design, batch, keys).writeJSON(w)
}

// newIntervalReply reports batch, with each workload's per-node series
// when keys is non-nil.
func newIntervalReply(design string, batch *sweep.IntervalBatch, keys *nodeKeys) intervalReply {
	r := intervalReply{
		head: IntervalSweepResponse{
			Design:           design,
			Workloads:        len(batch.Workloads),
			WindowsEvaluated: batch.WindowsEvaluated,
			Plan:             batch.Plan.Stats(),
			ElapsedMS:        float64(batch.Elapsed.Microseconds()) / 1e3,
			Results:          []IntervalWorkloadResult{},
		},
		results: make([]IntervalWorkloadResult, len(batch.Workloads)),
		keys:    keys,
	}
	if keys != nil {
		r.series = make([][][]float64, len(batch.Workloads))
	}
	for i := range batch.Workloads {
		iw := &batch.Workloads[i]
		wr := IntervalWorkloadResult{
			Name:             iw.Name,
			Windows:          make([]IntervalWindowInfo, len(iw.Windows)),
			ChipAVF:          iw.Summary.ChipAVF,
			TimeWeightedMean: iw.Summary.TimeWeightedMean,
			PeakWindow:       iw.Summary.PeakWindow,
			PeakChipAVF:      iw.Summary.PeakChipAVF,
			PeakToMean:       iw.Summary.PeakToMean,
		}
		for wi, span := range iw.Windows {
			wr.Windows[wi] = IntervalWindowInfo{Start: span.Start, End: span.End}
		}
		r.results[i] = wr
		if keys != nil {
			r.series[i] = iw.NodeSeries()
		}
	}
	return r
}

func (r intervalReply) writeJSON(w io.Writer) error {
	return writeResults(w, r.head, len(r.results), func(buf *replyBuf, i int) error {
		if err := buf.encode(r.results[i], itemIndent[1:]); err != nil {
			return err
		}
		if r.series == nil || len(r.series[i]) == 0 {
			return nil
		}
		series := r.series[i]
		return buf.nodes(r.keys, func(n int) error {
			if len(series[n]) == 0 {
				buf.b = append(buf.b, "[]"...)
				return nil
			}
			buf.b = append(buf.b, '[')
			for k, v := range series[n] {
				if k > 0 {
					buf.b = append(buf.b, ',')
				}
				buf.b = append(buf.b, memberIndent+"    "...)
				if err := buf.float(v); err != nil {
					return err
				}
			}
			buf.b = append(buf.b, memberIndent+"  ]"...)
			return nil
		})
	})
}

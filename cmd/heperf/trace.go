package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// opSpan is one sampled operation. A read covers [start, end]. An update
// covers [start, end] with two child spans: remove [start, mid] and, when
// the remove found the key, insert [mid, end].
type opSpan struct {
	seq             uint64
	update, removed bool
	start, mid, end int64 // ns since epoch
}

// spanRing is how many of the most recent sampled operations a spanLog keeps
// for spans.jsonl; the durations behind the span metrics cover every sample.
const spanRing = 2048

// spanLog collects one worker's sampled operations under one scheme, in
// memory, for the whole run.
type spanLog struct {
	ring   []opSpan
	next   int
	read   []int64
	update []int64
	remove []int64
	insert []int64
}

func (l *spanLog) add(s opSpan) {
	if len(l.ring) < spanRing {
		l.ring = append(l.ring, s)
	} else {
		l.ring[l.next] = s
		l.next = (l.next + 1) % spanRing
	}
	if !s.update {
		l.read = append(l.read, s.end-s.start)
		return
	}
	l.update = append(l.update, s.end-s.start)
	l.remove = append(l.remove, s.mid-s.start)
	if s.removed {
		l.insert = append(l.insert, s.end-s.mid)
	}
}

// spanLine is one line of spans.jsonl. Spans of one operation share trace;
// a child names its parent's span id.
type spanLine struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Worker   int    `json:"worker"`
	Trace    string `json:"trace"`
	Span     int    `json:"span"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanSource is the spans of one worker under one scheme in one workload.
type spanSource struct {
	workload, structure, scheme string
	worker                      int
	log                         *spanLog
}

// writeTrace writes dir/spans.jsonl and dir/layers.json.
func writeTrace(dir string, sources []spanSource, layers any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), sources); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), layers)
}

func writeSpans(path string, sources []spanSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, src := range sources {
		for _, s := range src.log.ring {
			trace := fmt.Sprintf("%s/%s/%d/%d", src.workload, src.scheme, src.worker, s.seq)
			emit := func(span, parent int, kind string, start, end int64) error {
				return enc.Encode(spanLine{
					Workload: src.workload, Scheme: src.scheme, Worker: src.worker,
					Trace: trace, Span: span, Parent: parent,
					Name: src.structure + "." + kind, StartNs: start, EndNs: end,
				})
			}
			var err error
			if !s.update {
				err = emit(1, 0, "read", s.start, s.end)
			} else {
				err = emit(1, 0, "update", s.start, s.end)
				if err == nil {
					err = emit(2, 1, "remove", s.start, s.mid)
				}
				if err == nil && s.removed {
					err = emit(3, 1, "insert", s.mid, s.end)
				}
			}
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

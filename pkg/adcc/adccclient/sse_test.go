package adccclient

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"adcc/pkg/adcc"
)

// consumeSSEText is a reference SSE parser over lines as strings, the
// oracle FuzzConsumeSSE holds consumeSSE to.
func consumeSSEText(r io.Reader, fn func(adcc.StreamEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev adcc.StreamEvent
	flush := func() error {
		if ev.Type == "" {
			return nil
		}
		e := ev
		ev = adcc.StreamEvent{}
		if err := fn(e); err != nil {
			return err
		}
		if e.Type == "done" {
			return errStreamDone
		}
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if err := flush(); err != nil {
				if err == errStreamDone {
					return nil
				}
				return err
			}
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			seq, err := strconv.Atoi(value)
			if err != nil {
				return fmt.Errorf("adccclient: malformed SSE id %q", line)
			}
			ev.Seq = seq
		case "event":
			ev.Type = value
		case "data":
			ev.Data = json.RawMessage(value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		if err == errStreamDone {
			return nil
		}
		return err
	}
	return io.ErrUnexpectedEOF
}

// parseAll runs one parser over in and returns every frame it
// dispatched and its result.
func parseAll(parse func(io.Reader, func(adcc.StreamEvent) error) error, in []byte) ([]adcc.StreamEvent, error) {
	var evs []adcc.StreamEvent
	err := parse(bytes.NewReader(in), func(e adcc.StreamEvent) error {
		evs = append(evs, e)
		return nil
	})
	return evs, err
}

// FuzzConsumeSSE: for any input, consumeSSE dispatches the same frames
// (Seq, Type, Data bytes) as the reference parser and ends with the
// same error, or none.
func FuzzConsumeSSE(f *testing.F) {
	for _, body := range []string{
		"id: 0\nevent: snapshot\ndata: {}\n\n" + "id: 1\nevent: done\ndata: {\"status\":\"done\"}\n",
		"id:5\nevent:progress\ndata:{\"n\":1}\n\nid:6\nevent:done\ndata:{}\n\n",
		"id: bogus\nevent: progress\ndata: {}\n\n",
		"id: 0\nevent: snapshot\ndata: {}\n\n",
		"id: 0\nevent: snapshot\ndata: " + strings.Repeat("x", 2<<20) + "\n\n",
		"id: 7\nevent: done\ndata: {}\n\n",
		"id: 0\nevent: injection_done\ndata: {\"cell\":\"mc/native@NVM-only\",\"index\":0,\"total\":2,\"outcome\":\"clean\"}\n\n" +
			"id: 1\nevent: shard_done\ndata: {\"cell\":\"mc/native@NVM-only\",\"shards_done\":1,\"shards_total\":1}\n\n" +
			"id: 2\nevent: done\ndata: {\"id\":\"j1\",\"status\":\"done\"}\n\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, gotErr := parseAll(consumeSSE, in)
		want, wantErr := parseAll(consumeSSEText, in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d frames, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("frame %d = %d %q %q, reference %d %q %q", i,
					got[i].Seq, got[i].Type, got[i].Data, want[i].Seq, want[i].Type, want[i].Data)
			}
		}
	})
}

// TestConsumeSSEAllocsPerFrame: a frame of a known type costs one
// allocation, its data payload.
func TestConsumeSSEAllocsPerFrame(t *testing.T) {
	const frames = 200
	var b bytes.Buffer
	for i := 0; i < frames; i++ {
		fmt.Fprintf(&b, "id: %d\nevent: injection_done\ndata: {\"index\":%d}\n\n", i, i)
	}
	fmt.Fprintf(&b, "id: %d\nevent: done\ndata: {}\n\n", frames)
	body := b.Bytes()
	r := bytes.NewReader(nil)
	fn := func(adcc.StreamEvent) error { return nil }
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(body)
		if err := consumeSSE(r, fn); err != nil {
			t.Fatal(err)
		}
	})
	// The rest is per stream: the scanner, its buffer and the closure.
	if limit := float64(frames + 1 + 8); allocs > limit {
		t.Errorf("%.0f allocations for %d frames, want at most %.0f", allocs, frames+1, limit)
	}
}

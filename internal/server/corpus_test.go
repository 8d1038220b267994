package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
)

// corpusSource is one testdata/*.py file with the uncached library's
// answer for it, computed under the budget the daemon applies.
type corpusSource struct {
	name    string
	source  string
	fp      string
	class   string // first class, for infer and trace requests
	wantErr bool   // the library's CheckAllContext fails
	want    []byte // json.Marshal of the library's reports otherwise
}

// loadCorpus reads every testdata/*.py that loads, in sorted glob
// order, and checks it directly with the library.
func loadCorpus(t *testing.T) []corpusSource {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	ctx := shelley.WithBudget(context.Background(), shelley.DefaultBudget())
	var out []corpusSource
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := shelley.LoadSource(string(b))
		if err != nil {
			continue // a file that does not load is not workload
		}
		src := corpusSource{name: filepath.Base(p), source: string(b), fp: client.Fingerprint(string(b))}
		if classes := mod.Classes(); len(classes) > 0 {
			src.class = classes[0].Name()
		}
		if reports, err := mod.CheckAllContext(ctx, 1); err != nil {
			src.wantErr = true
		} else if src.want, err = json.Marshal(reports); err != nil {
			t.Fatal(err)
		}
		out = append(out, src)
	}
	verified := 0
	for _, src := range out {
		if !src.wantErr {
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no testdata/*.py source verifies with the library; the oracle would compare nothing")
	}
	return out
}

// matchLibrary holds one check answer to the library's: byte-equal
// reports for a source the library verifies, never a 200 for one whose
// library check errors.
func matchLibrary(src corpusSource, resp *client.CheckResponse, err error) error {
	if src.wantErr {
		if err == nil {
			return errors.New("check succeeded, but the library's CheckAllContext fails")
		}
		return nil
	}
	if err != nil {
		return err
	}
	got, err := json.Marshal(resp.Reports)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, src.want) {
		return fmt.Errorf("reports differ from the library:\nserver:  %s\nlibrary: %s", got, src.want)
	}
	return nil
}

// TestCorpusMatchesLibrary is the corpus-wide oracle: from concurrent
// clients, every testdata source checked through the real endpoints —
// by source, by fingerprint and inside one whole-corpus batch — answers
// exactly what the uncached library answers.
func TestCorpusMatchesLibrary(t *testing.T) {
	const clients = 8
	sources := loadCorpus(t)
	_, cl := startServer(t, Config{Workers: 2, QueueDepth: 4 * clients, RequestTimeout: 60 * time.Second})
	ctx := context.Background()

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range sources {
				src := sources[(c+i)%len(sources)]
				if err := hitCorpusSource(ctx, cl, src); err != nil {
					errs[c] = fmt.Errorf("client %d: %s: %w", c, src.name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	req := client.BatchRequest{Items: make([]client.BatchItem, len(sources))}
	wantFailed := 0
	for i, src := range sources {
		req.Items[i] = client.BatchItem{ID: src.name, Source: src.source}
		if src.wantErr {
			wantFailed++
		}
	}
	stream, err := cl.CheckBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	seen := 0
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if rec.Index < 0 || rec.Index >= len(sources) {
			t.Fatalf("batch record index %d out of range", rec.Index)
		}
		src := sources[rec.Index]
		var resp *client.CheckResponse
		var recErr error
		if rec.Status == http.StatusOK {
			resp, recErr = rec.CheckResponse()
		} else {
			recErr = fmt.Errorf("status %d: %s", rec.Status, rec.Error)
		}
		if err := matchLibrary(src, resp, recErr); err != nil {
			t.Errorf("batch item %s: %v", src.name, err)
		}
	}
	if seen != len(sources) {
		t.Errorf("batch streamed %d records, want %d", seen, len(sources))
	}
	if sum := stream.Summary(); sum == nil || sum.Error != "" || sum.Total != len(sources) ||
		sum.Succeeded != len(sources)-wantFailed || sum.Failed != wantFailed {
		t.Errorf("batch summary not clean: %+v", sum)
	}
}

// hitCorpusSource checks src by source and then by fingerprint, and
// runs infer and an empty trace on its first class.
func hitCorpusSource(ctx context.Context, cl *client.Client, src corpusSource) error {
	resp, err := cl.Check(ctx, client.CheckRequest{Source: src.source})
	if err := matchLibrary(src, resp, err); err != nil {
		return fmt.Errorf("check by source: %w", err)
	}
	resp, err = cl.Check(ctx, client.CheckRequest{Fingerprint: src.fp})
	if err := matchLibrary(src, resp, err); err != nil {
		return fmt.Errorf("check by fingerprint: %w", err)
	}
	if src.class == "" {
		return nil
	}
	if _, err := cl.Infer(ctx, client.InferRequest{Source: src.source, Class: src.class}); err != nil {
		return fmt.Errorf("infer %s: %w", src.class, err)
	}
	if _, err := cl.Trace(ctx, client.TraceRequest{Source: src.source, Class: src.class}); err != nil {
		return fmt.Errorf("empty trace on %s: %w", src.class, err)
	}
	return nil
}

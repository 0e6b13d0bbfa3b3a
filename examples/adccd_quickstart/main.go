// Command adccd_quickstart drives the campaign service end to end
// without a network: it hosts an in-process adccd server on an httptest
// listener, submits a small campaign through the adccclient library,
// tails the SSE event stream, fetches the finished adcc-report/v1
// envelope, and then submits the same spec again to show the
// content-addressed cache answering with zero engine work. The same
// calls work unchanged against a real daemon — point adccclient.New at
// its address instead.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"

	"adcc/pkg/adcc"
	"adcc/pkg/adcc/adccclient"
	"adcc/pkg/adcc/adccd"
)

func main() {
	srv, err := adccd.New(adccd.Config{Parallel: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := adccclient.New(ts.URL, nil)
	ctx := context.Background()

	// Submit a small campaign: the mc workload at 2% scale. The spec
	// describes the deterministic result; the server's parallelism
	// never changes report bytes.
	spec := adcc.CampaignSpec{Workloads: []string{"mc"}, Scale: 0.02}
	info, err := client.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted job %s: %s, %d shards\n", info.ID, info.Status, info.ShardsTotal)

	// Tail the event stream until the terminal done frame. Frame
	// sequence and contents are deterministic for a given spec.
	var frames, shards int
	err = client.Events(ctx, info.ID, -1, func(e adcc.StreamEvent) error {
		frames++
		if e.Type == "shard_done" {
			shards++
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event stream: %d frames, %d shard_done\n", frames, shards)

	// The finished report is byte-identical to RunCampaign on the same
	// spec; show one cell of it.
	raw, err := client.Report(ctx, info.ID)
	if err != nil {
		log.Fatal(err)
	}
	var env struct {
		Campaign adcc.CampaignReport `json:"campaign"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		log.Fatal(err)
	}
	cell := env.Campaign.Cells[0]
	fmt.Printf("report: %d injections, first cell %s recovery %.2f\n",
		env.Campaign.Injections, cell.Key(), cell.RecoveryRate)

	// Resubmit the same result — different spelling, same cache key —
	// and get the cached report without recomputation.
	again, err := client.Submit(ctx, adcc.CampaignSpec{Workloads: []string{"mc", "mc"}, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("resubmitted: job %s answered with status %s (campaigns run: %d)\n",
		again.ID, again.Status, st.CampaignsRun)
}

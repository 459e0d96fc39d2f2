package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestPublicationRace steps a server slot by slot, with a hot swap from GT
// to FairMove between two slots, while reader goroutines poll DigestState,
// Decisions(-1) and Slot() — the published view of slots whose records
// were built beside the engine step (run under `make race`). Readers must
// never see more slots counted than Slot() reports, nor a counted slot
// whose decisions are missing from the retained window; the final digest
// must equal a batch Runner replay that swaps at the same slot, at one and
// two decide workers.
func TestPublicationRace(t *testing.T) {
	const seed, slots, swapAt = 31, 24, 9
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := core.DefaultConfig(0.6, seed)
			cfg.Workers = workers
			fm, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "swap.fmck")
			if err := checkpoint.WriteFile(path, fm); err != nil {
				t.Fatal(err)
			}
			reload := func(path string) (policy.Policy, error) {
				fm, err := core.New(cfg)
				if err != nil {
					return nil, err
				}
				if _, err := checkpoint.ReadFile(path, fm); err != nil {
					return nil, err
				}
				return fm, nil
			}

			city := microCity(t, seed)
			srv, err := New(Config{Env: sim.New(city, sim.DefaultOptions(1), seed), Policy: policy.NewGroundTruth(), Seed: seed, Reload: reload})
			if err != nil {
				t.Fatal(err)
			}
			history := srv.cfg.History
			srv.Start()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			poll := func(check func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							check()
						}
					}
				}()
			}
			poll(func() {
				counted, _, _ := srv.DigestState()
				if cur := srv.Slot(); counted > cur {
					t.Errorf("%d slots counted while Slot() = %d", counted, cur)
				}
				if counted == 0 {
					return
				}
				ds, slot, ok := srv.Decisions(counted - 1)
				if !ok && srv.Slot() < counted+history {
					t.Errorf("slot %d is counted but its decisions are not retained", slot)
				}
				for _, d := range ds {
					if d.Slot != slot {
						t.Errorf("Decisions(%d) holds a decision stamped slot %d", slot, d.Slot)
						return
					}
				}
			})
			poll(func() {
				ds, slot, ok := srv.Decisions(-1)
				if slot < 0 {
					return
				}
				if !ok {
					t.Errorf("latest slot %d has no retained decisions", slot)
				}
				for _, d := range ds {
					if d.Slot != slot {
						t.Errorf("Decisions(-1) for slot %d holds a decision stamped slot %d", slot, d.Slot)
						return
					}
				}
			})

			for i := 0; i < slots; i++ {
				if i == swapAt {
					if err := srv.Reload(ctx, path); err != nil {
						t.Fatalf("reload before slot %d: %v", i, err)
					}
				}
				if n, err := srv.StepSlots(ctx, 1); err != nil || n != 1 {
					t.Fatalf("slot %d: stepped %d, %v", i, n, err)
				}
			}
			close(stop)
			wg.Wait()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			gotSlots, gotDecs, got := srv.DigestState()

			r := policy.NewRunner(policy.NewGroundTruth(), sim.New(city, sim.DefaultOptions(1), seed), seed)
			var all []policy.Decision
			for i := 0; i < slots; i++ {
				if i == swapAt {
					p, err := reload(path)
					if err != nil {
						t.Fatal(err)
					}
					r.SetPolicy(p, seed)
				}
				all = append(all, r.StepSlot()...)
			}
			if want := DigestDecisions(all); got != want || gotSlots != slots || gotDecs != len(all) {
				t.Fatalf("served %d slots, %d decisions, digest %s; batch %d, %d, %s", gotSlots, gotDecs, got, slots, len(all), want)
			}
		})
	}
}

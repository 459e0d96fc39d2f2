// Command datagen generates the synthetic equivalents of the paper's five
// Shenzhen datasets (Section II, Table I) by running the ground-truth
// driver behavior over the synthetic city and recording the streams:
//
//	gps.csv          — per-slot vehicle positions with passenger indicator
//	transactions.csv — served trips with fares and cruise distances
//	charging.csv     — charging events with idle/charge decomposition
//	stations.csv     — charging-station metadata
//
// Usage:
//
//	datagen [-out DIR] [-seed N] [-days N] [-fleet N] [-regions N] [-stations N]
//	datagen stream [-url URL] [-seed N] [-fleet N] [-slots N] [-rps R] [-batch N] [-digest]
//
// `datagen stream` records the same ground-truth behavior as NDJSON ingest
// events (the online analogue of the CSV datasets) and either writes them to
// stdout or replays them into a running `fairmove serve` at -rps events per
// second, honoring the service's 429 backpressure protocol.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/geo"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stream" {
		if err := runStream(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		return
	}
	out := flag.String("out", "dataset", "output directory")
	seed := flag.Int64("seed", 42, "master random seed")
	days := flag.Int("days", 1, "days of operation to record")
	fleet := flag.Int("fleet", 300, "fleet size")
	regions := flag.Int("regions", 75, "region count")
	stations := flag.Int("stations", 18, "charging station count")
	flag.Parse()

	if err := run(*out, *seed, *days, *fleet, *regions, *stations); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(out string, seed int64, days, fleet, regions, stations int) error {
	city, err := synth.Build(synth.Config{
		Seed: seed, Regions: regions, Stations: stations, Fleet: fleet,
		TripsPerDay: 15 * fleet, SlotMinutes: 10,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	gpsF, err := os.Create(filepath.Join(out, "gps.csv"))
	if err != nil {
		return err
	}
	defer gpsF.Close()
	gps, err := trace.NewGPSWriter(gpsF)
	if err != nil {
		return err
	}

	env := sim.New(city, sim.DefaultOptions(days), seed)
	r := policy.NewRunner(policy.NewGroundTruth(), env, seed)
	jitter := rng.SplitStable(seed, "gps-jitter")

	var gpsRows int
	for !r.Done() {
		r.StepSlot()
		// One GPS fix per taxi per slot: region centroid with jitter, the
		// occupied flag from the state machine, speed from the time of day.
		now := env.Now()
		for id := 0; id < fleet; id++ {
			c := city.Partition.Region(env.TaxiRegion(id)).Centroid
			state := env.TaxiState(id)
			speed := 0.0
			if state == sim.Serving || state == sim.Relocating || state == sim.ToStation {
				speed = 30
			} else if state == sim.Cruising {
				speed = 12
			}
			rec := trace.GPSRecord{
				VehicleID: id,
				TimeMin:   now,
				Loc: geo.Point{
					Lng: c.Lng + jitter.Uniform(-0.003, 0.003),
					Lat: c.Lat + jitter.Uniform(-0.003, 0.003),
				},
				DirDeg:   jitter.Uniform(0, 360),
				SpeedKmh: speed,
				Occupied: state == sim.Serving,
			}
			if err := gps.Write(rec); err != nil {
				return err
			}
			gpsRows++
		}
	}
	if err := gps.Flush(); err != nil {
		return err
	}
	res := env.Results()

	// Transactions.
	txF, err := os.Create(filepath.Join(out, "transactions.csv"))
	if err != nil {
		return err
	}
	defer txF.Close()
	tx, err := trace.NewTransactionWriter(txF)
	if err != nil {
		return err
	}
	for _, ts := range res.TripStats {
		err := tx.Write(trace.Transaction{
			VehicleID:    ts.Taxi,
			PickupMin:    ts.PickupMin,
			DropoffMin:   ts.PickupMin + int(ts.DurMin+0.5),
			Pickup:       ts.Pickup,
			Dropoff:      ts.Dropoff,
			OperatingKm:  ts.DistanceKm,
			CruisingKm:   ts.CruiseMin / 60 * 12,
			FareCNY:      ts.FareCNY,
			PickupRegion: ts.Region,
			DropRegion:   ts.DestRegion,
		})
		if err != nil {
			return err
		}
	}
	if err := tx.Flush(); err != nil {
		return err
	}

	// Charging events.
	chF, err := os.Create(filepath.Join(out, "charging.csv"))
	if err != nil {
		return err
	}
	defer chF.Close()
	ch, err := trace.NewChargingWriter(chF)
	if err != nil {
		return err
	}
	for _, ev := range res.ChargeStats {
		if err := ch.Write(ev); err != nil {
			return err
		}
	}
	if err := ch.Flush(); err != nil {
		return err
	}

	// Station metadata.
	stF, err := os.Create(filepath.Join(out, "stations.csv"))
	if err != nil {
		return err
	}
	defer stF.Close()
	metas := make([]trace.StationMeta, city.Stations.Len())
	for i := 0; i < city.Stations.Len(); i++ {
		st := city.Stations.Station(i)
		metas[i] = trace.StationMeta{StationID: st.ID, Name: st.Name, Loc: st.Loc, Points: st.Points}
	}
	if err := trace.WriteStationMeta(stF, metas); err != nil {
		return err
	}

	fmt.Printf("dataset written to %s: %d GPS rows, %d transactions, %d charging events, %d stations\n",
		out, gpsRows, len(res.TripStats), len(res.ChargeStats), city.Stations.Len())
	return nil
}

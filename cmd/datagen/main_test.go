package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// readRows reads a dataset CSV written by run and returns its records
// without the header line.
func readRows(t *testing.T, dir, name string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s has no header", name)
	}
	return rows[1:]
}

// num parses field i of a dataset row as a number.
func num(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		t.Fatalf("row %v field %d: %v", row, i, err)
	}
	return v
}

func TestRunWritesReadableDataset(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 9, 1, 60, 30, 8); err != nil {
		t.Fatal(err)
	}

	// gps.csv: vehicle_id,time_min,lng,lat,dir_deg,speed_kmh,occupied.
	gps := readRows(t, dir, "gps.csv")
	// One fix per taxi per slot: 60 taxis × 144 slots.
	if len(gps) != 60*144 {
		t.Fatalf("GPS rows = %d, want %d", len(gps), 60*144)
	}
	occupied := 0
	for _, r := range gps {
		if id := num(t, r, 0); id < 0 || id >= 60 {
			t.Fatalf("invalid vehicle id %v", id)
		}
		if r[6] == "1" {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("no occupied GPS fixes — trips missing from the stream")
	}

	// transactions.csv: pickup_min 1, dropoff_min 2, operating_km 7, fare_cny 9.
	txs := readRows(t, dir, "transactions.csv")
	if len(txs) == 0 {
		t.Fatal("no transactions")
	}
	for _, tx := range txs {
		if num(t, tx, 2) <= num(t, tx, 1) {
			t.Fatalf("non-positive trip duration: %v", tx)
		}
		if num(t, tx, 9) <= 0 || num(t, tx, 7) <= 0 {
			t.Fatalf("degenerate transaction: %v", tx)
		}
	}

	// charging.csv: station_id 1, plug_min 3, finish_min 4.
	for _, ev := range readRows(t, dir, "charging.csv") {
		if s := num(t, ev, 1); s < 0 || s >= 8 {
			t.Fatalf("invalid station in charging event: %v", ev)
		}
		if num(t, ev, 4) <= num(t, ev, 3) {
			t.Fatalf("non-positive charge duration: %v", ev)
		}
	}

	if metas := readRows(t, dir, "stations.csv"); len(metas) != 8 {
		t.Fatalf("station metadata rows = %d, want 8", len(metas))
	}
}

func TestRunRejectsBadCity(t *testing.T) {
	if err := run(t.TempDir(), 1, 1, 0, 30, 8); err == nil {
		t.Fatal("zero fleet accepted")
	}
}

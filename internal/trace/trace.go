// Package trace defines the record schemas of the paper's datasets
// (Section II, Table I) and streams them out as CSV: the synthetic data
// generator writes the GPS, transaction, charging-event and station files in
// the layout the original system consumed from the Shenzhen streams. It also
// holds the canonical event-log codec (event.go) the golden-trace harness
// digests.
package trace

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/geo"
)

// GPSRecord is one row of the e-taxi GPS stream: vehicle ID, position,
// timestamp, heading, speed, and passenger indicator.
type GPSRecord struct {
	VehicleID int
	TimeMin   int // absolute simulation minute
	Loc       geo.Point
	DirDeg    float64
	SpeedKmh  float64
	Occupied  bool
}

// Transaction is one row of the transaction fare stream.
type Transaction struct {
	VehicleID    int
	PickupMin    int
	DropoffMin   int
	Pickup       geo.Point
	Dropoff      geo.Point
	OperatingKm  float64 // on-trip distance
	CruisingKm   float64 // empty distance before pickup
	FareCNY      float64
	PickupRegion int
	DropRegion   int
}

// ChargingEvent is one inferred charging event (the paper infers these from
// GPS + station data per [16]).
type ChargingEvent struct {
	VehicleID int
	StationID int
	ArriveMin int     // arrival at the station (start of idle)
	PlugMin   int     // plug-in (end of idle, start of charge)
	FinishMin int     // unplug
	EnergyKWh float64 // energy delivered
	CostCNY   float64 // TOU cost
	StartSoC  float64
	EndSoC    float64
}

// IdleMin returns the queueing idle time T_idle in minutes.
func (c ChargingEvent) IdleMin() int { return c.PlugMin - c.ArriveMin }

// ChargeMin returns the plugged-in duration T_charge in minutes.
func (c ChargingEvent) ChargeMin() int { return c.FinishMin - c.PlugMin }

// StationMeta is one row of the charging-station dataset.
type StationMeta struct {
	StationID int
	Name      string
	Loc       geo.Point
	Points    int
}

// --- CSV encoding ---

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// GPSWriter streams GPSRecords as CSV.
type GPSWriter struct{ w *csv.Writer }

// NewGPSWriter writes a header and returns a writer.
func NewGPSWriter(w io.Writer) (*GPSWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"vehicle_id", "time_min", "lng", "lat", "dir_deg", "speed_kmh", "occupied"}); err != nil {
		return nil, err
	}
	return &GPSWriter{w: cw}, nil
}

// Write appends one record.
func (g *GPSWriter) Write(r GPSRecord) error {
	occ := "0"
	if r.Occupied {
		occ = "1"
	}
	return g.w.Write([]string{
		strconv.Itoa(r.VehicleID), strconv.Itoa(r.TimeMin),
		f(r.Loc.Lng), f(r.Loc.Lat), f(r.DirDeg), f(r.SpeedKmh), occ,
	})
}

// Flush flushes buffered rows and reports any write error.
func (g *GPSWriter) Flush() error {
	g.w.Flush()
	return g.w.Error()
}

// TransactionWriter streams Transactions as CSV.
type TransactionWriter struct{ w *csv.Writer }

// NewTransactionWriter writes a header and returns a writer.
func NewTransactionWriter(w io.Writer) (*TransactionWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"vehicle_id", "pickup_min", "dropoff_min", "pickup_lng", "pickup_lat",
		"dropoff_lng", "dropoff_lat", "operating_km", "cruising_km", "fare_cny",
		"pickup_region", "drop_region",
	}); err != nil {
		return nil, err
	}
	return &TransactionWriter{w: cw}, nil
}

// Write appends one record.
func (t *TransactionWriter) Write(r Transaction) error {
	return t.w.Write([]string{
		strconv.Itoa(r.VehicleID), strconv.Itoa(r.PickupMin), strconv.Itoa(r.DropoffMin),
		f(r.Pickup.Lng), f(r.Pickup.Lat), f(r.Dropoff.Lng), f(r.Dropoff.Lat),
		f(r.OperatingKm), f(r.CruisingKm), f(r.FareCNY),
		strconv.Itoa(r.PickupRegion), strconv.Itoa(r.DropRegion),
	})
}

// Flush flushes buffered rows and reports any write error.
func (t *TransactionWriter) Flush() error {
	t.w.Flush()
	return t.w.Error()
}

// ChargingWriter streams ChargingEvents as CSV.
type ChargingWriter struct{ w *csv.Writer }

// NewChargingWriter writes a header and returns a writer.
func NewChargingWriter(w io.Writer) (*ChargingWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"vehicle_id", "station_id", "arrive_min", "plug_min", "finish_min",
		"energy_kwh", "cost_cny", "start_soc", "end_soc",
	}); err != nil {
		return nil, err
	}
	return &ChargingWriter{w: cw}, nil
}

// Write appends one record.
func (c *ChargingWriter) Write(r ChargingEvent) error {
	return c.w.Write([]string{
		strconv.Itoa(r.VehicleID), strconv.Itoa(r.StationID),
		strconv.Itoa(r.ArriveMin), strconv.Itoa(r.PlugMin), strconv.Itoa(r.FinishMin),
		f(r.EnergyKWh), f(r.CostCNY), f(r.StartSoC), f(r.EndSoC),
	})
}

// Flush flushes buffered rows and reports any write error.
func (c *ChargingWriter) Flush() error {
	c.w.Flush()
	return c.w.Error()
}

// WriteStationMeta writes the station metadata dataset.
func WriteStationMeta(w io.Writer, metas []StationMeta) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"station_id", "name", "lng", "lat", "points"}); err != nil {
		return err
	}
	for _, m := range metas {
		if err := cw.Write([]string{
			strconv.Itoa(m.StationID), m.Name, f(m.Loc.Lng), f(m.Loc.Lat), strconv.Itoa(m.Points),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

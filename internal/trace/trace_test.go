package trace

import (
	"bytes"
	"testing"

	"repro/internal/geo"
)

// TestCSVWriterBytes pins each dataset writer's exact output: the header
// line and the bytes of one record, including a station name that needs CSV
// quoting and floats in shortest round-trip form.
func TestCSVWriterBytes(t *testing.T) {
	charge := ChargingEvent{
		VehicleID: 7, StationID: 22, ArriveMin: 1000, PlugMin: 1015, FinishMin: 1090,
		EnergyKWh: 55.5, CostCNY: 61.05, StartSoC: 0.2, EndSoC: 0.95,
	}
	if charge.IdleMin() != 15 || charge.ChargeMin() != 75 {
		t.Fatalf("IdleMin, ChargeMin = %d, %d; want 15, 75", charge.IdleMin(), charge.ChargeMin())
	}

	cases := []struct {
		name  string
		write func(*bytes.Buffer) error
		want  string
	}{
		{
			name: "gps",
			write: func(buf *bytes.Buffer) error {
				w, err := NewGPSWriter(buf)
				if err != nil {
					return err
				}
				rec := GPSRecord{VehicleID: 1, TimeMin: 100, Loc: geo.Point{Lng: 114.05, Lat: 22.53}, DirDeg: 180.5, SpeedKmh: 1e-7, Occupied: true}
				if err := w.Write(rec); err != nil {
					return err
				}
				return w.Flush()
			},
			want: "vehicle_id,time_min,lng,lat,dir_deg,speed_kmh,occupied\n" +
				"1,100,114.05,22.53,180.5,1e-07,1\n",
		},
		{
			name: "transactions",
			write: func(buf *bytes.Buffer) error {
				w, err := NewTransactionWriter(buf)
				if err != nil {
					return err
				}
				rec := Transaction{
					VehicleID: 3, PickupMin: 500, DropoffMin: 525,
					Pickup:      geo.Point{Lng: 114.1, Lat: 22.55},
					Dropoff:     geo.Point{Lng: 114.2, Lat: 22.6},
					OperatingKm: 12.5, CruisingKm: 0.30000000000000004, FareCNY: 45.3,
					PickupRegion: 17, DropRegion: 203,
				}
				if err := w.Write(rec); err != nil {
					return err
				}
				return w.Flush()
			},
			want: "vehicle_id,pickup_min,dropoff_min,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,operating_km,cruising_km,fare_cny,pickup_region,drop_region\n" +
				"3,500,525,114.1,22.55,114.2,22.6,12.5,0.30000000000000004,45.3,17,203\n",
		},
		{
			name: "charging",
			write: func(buf *bytes.Buffer) error {
				w, err := NewChargingWriter(buf)
				if err != nil {
					return err
				}
				if err := w.Write(charge); err != nil {
					return err
				}
				return w.Flush()
			},
			want: "vehicle_id,station_id,arrive_min,plug_min,finish_min,energy_kwh,cost_cny,start_soc,end_soc\n" +
				"7,22,1000,1015,1090,55.5,61.05,0.2,0.95\n",
		},
		{
			name: "stations",
			write: func(buf *bytes.Buffer) error {
				return WriteStationMeta(buf, []StationMeta{
					{StationID: 1, Name: `CS "East", Futian`, Loc: geo.Point{Lng: 114.3, Lat: 22.7}, Points: 25},
				})
			},
			want: "station_id,name,lng,lat,points\n" +
				`1,"CS ""East"", Futian",114.3,22.7,25` + "\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.write(&buf); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != c.want {
				t.Fatalf("wrote\n%q\nwant\n%q", got, c.want)
			}
		})
	}
}

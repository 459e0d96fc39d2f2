package station

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// stationModel drives a State through a random op sequence while tracking
// the expected arrival order and population independently.
type stationModel struct {
	st      *State
	arrived []int // queue arrival order (oracle for FIFO promotion)
	plugged map[int]bool
	next    int // next taxi ID to hand out
}

func newStationModel(points int) *stationModel {
	return &stationModel{
		st: NewState(Station{
			ID: 0, Points: points,
			Charger: fastCharger,
		}),
		plugged: make(map[int]bool),
	}
}

// Properties (DESIGN.md §6): station queues promote strictly in FIFO order,
// no taxi is ever lost or duplicated, and CheckInvariants holds after every
// operation.
func TestStationQueueFIFONoLostTaxi(t *testing.T) {
	prop := func(seed int64, pointsRaw, opsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		points := int(pointsRaw%4) + 1
		m := newStationModel(points)
		ops := int(opsRaw%120) + 10
		for i := 0; i < ops; i++ {
			switch r.Intn(2) {
			case 0: // arrive
				id := m.next
				m.next++
				plugged := m.st.Arrive(id)
				if plugged {
					if m.st.Occupied() > points {
						t.Logf("op %d: occupancy %d exceeds %d points", i, m.st.Occupied(), points)
						return false
					}
					if len(m.arrived) > 0 {
						t.Logf("op %d: taxi %d plugged straight in past a non-empty queue", i, id)
						return false
					}
					m.plugged[id] = true
				} else {
					m.arrived = append(m.arrived, id)
				}
			case 1: // finish a random charging taxi
				if len(m.plugged) == 0 {
					continue
				}
				var ids []int
				for id := range m.plugged {
					ids = append(ids, id)
				}
				// Map order is random anyway; pick deterministically for the
				// failure-case replay.
				id := ids[0]
				for _, v := range ids {
					if v < id {
						id = v
					}
				}
				promoted := m.st.Finish(id)
				delete(m.plugged, id)
				if len(m.arrived) == 0 {
					if promoted != -1 {
						t.Logf("op %d: promoted %d from an empty queue", i, promoted)
						return false
					}
				} else {
					if promoted != m.arrived[0] {
						t.Logf("op %d: promoted %d, FIFO head was %d", i, promoted, m.arrived[0])
						return false
					}
					m.plugged[promoted] = true
					m.arrived = m.arrived[1:]
				}
			}
			if err := m.st.CheckInvariants(); err != nil {
				t.Logf("op %d: %v", i, err)
				return false
			}
			// No lost taxis: the state must account for exactly the taxis the
			// model believes are present.
			if m.st.Occupied() != len(m.plugged) || m.st.QueueLen() != len(m.arrived) {
				t.Logf("op %d: state has %d charging / %d waiting, model has %d / %d",
					i, m.st.Occupied(), m.st.QueueLen(), len(m.plugged), len(m.arrived))
				return false
			}
			for id := range m.plugged {
				if !m.st.charging[id] {
					t.Logf("op %d: taxi %d lost from charging set", i, id)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Package partition models the urban partition data of Section II: the city
// is divided into 491 irregular regions, each with a polygon boundary, a
// centroid, and a set of adjacent regions. The paper uses the Shenzhen
// government census partition; since that file is proprietary, this package
// also provides a deterministic generator producing a partition with the
// same interface properties (region count, irregular polygons, adjacency
// graph, full coverage of the urban bounding box).
package partition

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Region is one cell of the urban partition.
type Region struct {
	ID       int
	Polygon  geo.Polygon
	Centroid geo.Point
	// Neighbors lists the IDs of regions sharing a boundary with this one,
	// sorted ascending. The displacement action space of the paper ("move to
	// an adjacent region") is defined over this list.
	Neighbors []int
}

// Partition is a complete urban partition.
type Partition struct {
	regions []Region
	bbox    geo.BBox
}

// New builds a Partition from regions, validating IDs and symmetry of the
// adjacency relation.
func New(regions []Region) (*Partition, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("partition: no regions")
	}
	seen := make(map[int]bool, len(regions))
	byID := make(map[int]*Region, len(regions))
	for i := range regions {
		r := &regions[i]
		if r.ID != i {
			return nil, fmt.Errorf("partition: region at index %d has ID %d; IDs must be dense 0..n-1", i, r.ID)
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("partition: duplicate region ID %d", r.ID)
		}
		seen[r.ID] = true
		byID[r.ID] = r
	}
	for i := range regions {
		r := &regions[i]
		for _, nb := range r.Neighbors {
			if nb == r.ID {
				return nil, fmt.Errorf("partition: region %d lists itself as neighbor", r.ID)
			}
			other, ok := byID[nb]
			if !ok {
				return nil, fmt.Errorf("partition: region %d has unknown neighbor %d", r.ID, nb)
			}
			if !containsInt(other.Neighbors, r.ID) {
				return nil, fmt.Errorf("partition: adjacency not symmetric between %d and %d", r.ID, nb)
			}
		}
		sort.Ints(r.Neighbors)
	}
	var all []geo.Point
	for _, r := range regions {
		all = append(all, r.Polygon.Ring...)
	}
	return &Partition{regions: regions, bbox: geo.BBoxOf(all)}, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Len returns the number of regions.
func (p *Partition) Len() int { return len(p.regions) }

// Region returns the region with the given ID.
func (p *Partition) Region(id int) Region { return p.regions[id] }

// Regions returns all regions. The slice must not be modified.
func (p *Partition) Regions() []Region { return p.regions }

// BBox returns the bounding box of the whole partition.
func (p *Partition) BBox() geo.BBox { return p.bbox }

// Distance returns the centroid-to-centroid distance between two regions in
// kilometres.
func (p *Partition) Distance(a, b int) float64 {
	return geo.Distance(p.regions[a].Centroid, p.regions[b].Centroid)
}

// IsConnected reports whether the adjacency graph is a single connected
// component. The generator guarantees this; custom partitions may check it.
func (p *Partition) IsConnected() bool {
	if len(p.regions) == 0 {
		return false
	}
	seen := make([]bool, len(p.regions))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range p.regions[cur].Neighbors {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == len(p.regions)
}

// ShenzhenBBox is the bounding box the generator uses; it approximates the
// extent of urban Shenzhen.
var ShenzhenBBox = geo.BBox{MinLng: 113.75, MinLat: 22.45, MaxLng: 114.65, MaxLat: 22.85}

// Generate produces a deterministic partition of n regions over bbox. The
// regions form a jittered lattice: cells of a cols×rows grid with randomly
// perturbed shared corners (so the tiling stays gap-free), with the
// (cols·rows − n) cells farthest from the centre removed, standing in for
// non-urban terrain. The result is connected and has 3–8 neighbors per
// region, like the census partition the paper uses.
func Generate(seed int64, n int, bbox geo.BBox) (*Partition, error) {
	if n < 4 {
		return nil, fmt.Errorf("partition: need at least 4 regions, got %d", n)
	}
	src := rng.SplitStable(seed, "partition")

	// Pick a grid shape matching the bbox aspect ratio with cols*rows >= n.
	aspect := bbox.Width() / bbox.Height()
	rows := 1
	for {
		cols := int(float64(rows)*aspect + 0.5)
		if cols < 1 {
			cols = 1
		}
		if cols*rows >= n {
			break
		}
		rows++
	}
	cols := int(float64(rows)*aspect + 0.5)
	if cols < 1 {
		cols = 1
	}
	for cols*rows < n {
		cols++
	}

	// Jittered shared corner lattice: corner (i,j) for i in [0,cols], j in [0,rows].
	cw := bbox.Width() / float64(cols)
	ch := bbox.Height() / float64(rows)
	corner := make([][]geo.Point, rows+1)
	for j := 0; j <= rows; j++ {
		corner[j] = make([]geo.Point, cols+1)
		for i := 0; i <= cols; i++ {
			p := geo.Point{
				Lng: bbox.MinLng + float64(i)*cw,
				Lat: bbox.MinLat + float64(j)*ch,
			}
			// Interior corners jitter by up to 30% of a cell; boundary
			// corners stay fixed so the partition exactly tiles the bbox.
			if i > 0 && i < cols && j > 0 && j < rows {
				p.Lng += src.Uniform(-0.3, 0.3) * cw
				p.Lat += src.Uniform(-0.3, 0.3) * ch
			}
			corner[j][i] = p
		}
	}

	// Rank cells by distance from centre; drop the farthest extras.
	type cell struct {
		i, j int
		d    float64
	}
	center := bbox.Center()
	cells := make([]cell, 0, cols*rows)
	for j := 0; j < rows; j++ {
		for i := 0; i < cols; i++ {
			mid := geo.Point{
				Lng: bbox.MinLng + (float64(i)+0.5)*cw,
				Lat: bbox.MinLat + (float64(j)+0.5)*ch,
			}
			cells = append(cells, cell{i, j, geo.Distance(mid, center)})
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].d < cells[b].d })
	kept := cells[:n]

	// Assign dense IDs.
	idOf := make(map[[2]int]int, n)
	for id, c := range kept {
		idOf[[2]int{c.i, c.j}] = id
	}

	regions := make([]Region, n)
	for id, c := range kept {
		ring := []geo.Point{
			corner[c.j][c.i],
			corner[c.j][c.i+1],
			corner[c.j+1][c.i+1],
			corner[c.j+1][c.i],
		}
		pg := geo.Polygon{Ring: ring}
		var nbs []int
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			if nb, ok := idOf[[2]int{c.i + d[0], c.j + d[1]}]; ok {
				nbs = append(nbs, nb)
			}
		}
		sort.Ints(nbs)
		regions[id] = Region{ID: id, Polygon: pg, Centroid: pg.Centroid(), Neighbors: nbs}
	}

	p, err := New(regions)
	if err != nil {
		return nil, err
	}
	if !p.IsConnected() {
		return nil, fmt.Errorf("partition: generated partition is disconnected (n=%d)", n)
	}
	return p, nil
}

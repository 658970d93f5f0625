package core

import (
	"strings"

	"repro/internal/vcity"
)

// OverheadMap renders Figure 2's overhead city view as ASCII art: each
// tile drawn as a grid with roads (#), buildings (B), traffic cameras
// (T), and panoramic cameras (P). Tiles are disconnected, so they are
// laid out side by side.
func OverheadMap(scale int, seed uint64) (string, error) {
	city, err := vcity.Generate(vcity.Hyperparams{
		Scale: scale, Width: 64, Height: 64, Duration: 1, Seed: seed,
	})
	if err != nil {
		return "", err
	}
	const cells = 24 // cells per tile side
	var b strings.Builder
	perRow := 3
	for row := 0; row*perRow < len(city.Tiles); row++ {
		tiles := city.Tiles[row*perRow : min(len(city.Tiles), (row+1)*perRow)]
		grids := make([][]string, len(tiles))
		for i, tile := range tiles {
			grids[i] = tileGrid(tile, cells)
		}
		for y := 0; y < cells; y++ {
			for i := range grids {
				b.WriteString(grids[i][y])
				b.WriteString("   ")
			}
			b.WriteByte('\n')
		}
		for _, tile := range tiles {
			name := tile.Layout.Spec.String()
			if len(name) > cells+3 {
				name = name[:cells+3]
			}
			b.WriteString(name)
			b.WriteString(strings.Repeat(" ", cells+3-len(name)))
		}
		b.WriteString("\n\n")
	}
	return b.String(), nil
}

func tileGrid(tile *vcity.Tile, cells int) []string {
	grid := make([][]byte, cells)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", cells))
	}
	scale := vcity.TileSize / float64(cells)
	// Ground materials: each cell is larger than a road's width, so
	// sample a 3×3 grid inside the cell and mark the strongest feature
	// found (road beats sidewalk beats grass).
	for y := 0; y < cells; y++ {
		for x := 0; x < cells; x++ {
			best := vcity.MatGrass
			for sy := 0; sy < 3; sy++ {
				for sx := 0; sx < 3; sx++ {
					m := tile.Layout.MaterialAt(
						(float64(x)+float64(sx)/3+0.17)*scale,
						(float64(y)+float64(sy)/3+0.17)*scale)
					switch m {
					case vcity.MatRoad, vcity.MatLaneMark:
						best = vcity.MatRoad
					case vcity.MatSidewalk:
						if best == vcity.MatGrass {
							best = vcity.MatSidewalk
						}
					}
				}
			}
			switch best {
			case vcity.MatRoad:
				grid[y][x] = '#'
			case vcity.MatSidewalk:
				grid[y][x] = '+'
			}
		}
	}
	// Buildings.
	for _, bl := range tile.Layout.Buildings {
		x0, y0 := int(bl.Min.X/scale), int(bl.Min.Y/scale)
		x1, y1 := int(bl.Max.X/scale), int(bl.Max.Y/scale)
		for y := y0; y <= y1 && y < cells; y++ {
			for x := x0; x <= x1 && x < cells; x++ {
				grid[y][x] = 'B'
			}
		}
	}
	// Cameras.
	for _, cam := range tile.Cameras {
		x := int(cam.Pos.X / scale)
		y := int(cam.Pos.Y / scale)
		if x < 0 || x >= cells || y < 0 || y >= cells {
			continue
		}
		if cam.Kind == vcity.TrafficCamera {
			grid[y][x] = 'T'
		} else {
			grid[y][x] = 'P'
		}
	}
	out := make([]string, cells)
	for y := range grid {
		// Flip vertically so north is up.
		out[cells-1-y] = string(grid[y])
	}
	return out
}

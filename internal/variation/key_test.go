package variation

import (
	"testing"

	"ccdac/internal/keycheck"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// TestCovKeyCompleteness: every technology field, nested layers, unit
// cell and mismatch model included, moves the covariance key, or is
// excluded here with a reason. The cell positions are fixed: the key
// hashes them directly, whatever geometry produced them.
func TestCovKeyCompleteness(t *testing.T) {
	m, err := place.NewSpiral(4)
	if err != nil {
		t.Fatal(err)
	}
	g := gatherCells(m, GridPositioner(tech.FinFET12()))
	geometry := "geometry: reaches the covariance only as the cell positions the key hashes"
	electrical := "electrical: read only by extraction"
	keycheck.Fields(t, []tech.Technology{*tech.FinFET12(), *tech.Bulk65()}, func(tc tech.Technology) string {
		return covKeyOf(g, &tc, FFTAuto)
	}, map[string]string{
		"Name":                      "a label",
		"Layers[].Name":             "a label",
		"Layers[].Dir":              geometry,
		"Layers[].Pitch":            geometry,
		"SMinUm":                    geometry,
		"Unit.W":                    geometry,
		"Unit.H":                    geometry,
		"Unit.AbutLen":              geometry,
		"Unit.BottomLayer":          geometry,
		"Unit.TopLayer":             geometry,
		"Layers[].ROhmPerUm":        electrical,
		"Layers[].CfFPerUm":         electrical,
		"ViaROhm":                   electrical,
		"CouplingC0fFPerUm":         electrical,
		"SwitchROhm":                electrical,
		"TopPlateCfFPerUm":          electrical,
		"Mis.GradientPPMPerUm":      "gradient term: applied per angle after the shared covariance",
		"Mis.QuadGradientPPMPerUm2": "gradient term: applied per angle after the shared covariance",
		"VRef":                      "read only by the nonlinearity model",
	})
}

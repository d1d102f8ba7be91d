package parafor_test

import (
	"testing"

	"github.com/symprop/symprop/tools/symlint/analysis/analysistest"
	"github.com/symprop/symprop/tools/symlint/analyzers/parafor"
)

func TestParallelClosures(t *testing.T) {
	analysistest.Run(t, parafor.Analyzer, "testdata/src/parafor", "fixture.example/parafor")
}

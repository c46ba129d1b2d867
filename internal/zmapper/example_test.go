package zmapper_test

import (
	"fmt"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/zmapper"
)

// Turtle attribution (§6.2, Tables 4-6): run several Zmap-style scans of
// the population, rank the autonomous systems and continents contributing
// the most high-latency addresses, and watch the ranking stay stable across
// scans — the paper's evidence that high latency is a property of cellular
// networks, not a transient condition.
func Example_turtles() {
	pop := netmodel.New(netmodel.Config{Seed: 2015, Blocks: 512})
	src := ipaddr.MustParse("240.0.2.1")
	fabric := func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		model.AddVantage(src, ipmeta.NorthAmerica)
		return model
	}

	// Three scans, days apart, at different times of day (the paper used
	// the May 22, Jun 21 and Jul 9 2015 scans).
	var scans []core.ScanTallies
	for i := 0; i < 3; i++ {
		sc, err := zmapper.RunSharded(zmapper.Config{
			Src: src, Continent: ipmeta.NorthAmerica,
			TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
			Duration: 90 * time.Minute,
			Start:    simnet.Time(i*9*24) * simnet.Time(time.Hour),
			Seed:     uint64(1000 + i),
		}, 1, fabric)
		if err != nil {
			panic(err)
		}
		scans = append(scans, sc.Turtles)
		rtts := sc.RTTPercentiles()
		fmt.Printf("scan %d: %d responders, median %v, >1s %.2f%%, >100s %.3f%%\n",
			i+1, len(rtts), stats.Percentile(rtts, 50).Round(time.Millisecond),
			100*stats.FracAbove(rtts, time.Second),
			100*stats.FracAbove(rtts, 100*time.Second))
	}

	db := pop.DB()
	rows := core.RankASes(scans, db, core.Turtles, 10)
	fmt.Printf("\nTable 4 — ASes with the most addresses >1s (turtles):\n%s", core.FormatASRanks(rows))
	fmt.Printf("\nTable 5 — continents:\n%s",
		core.FormatContinentRanks(core.RankContinents(scans, db, core.Turtles)))
	fmt.Printf("\nTable 6 — ASes with the most addresses >100s (sleepy-turtles):\n%s",
		core.FormatASRanks(core.RankASes(scans, db, core.SleepyTurtles, 10)))

	fmt.Printf("\ncellular/mixed carriers hold %d of the top %d turtle slots.\n",
		int(core.CellularShare(rows)*float64(len(rows))+0.5), len(rows))
	fmt.Println("as in the paper: the slow Internet is mostly the cellular Internet.")
	// Output:
	// scan 1: 28552 responders, median 214ms, >1s 4.79%, >100s 0.028%
	// scan 2: 29250 responders, median 214ms, >1s 5.06%, >100s 0.010%
	// scan 3: 29866 responders, median 215ms, >1s 4.63%, >100s 0.020%
	//
	// Table 4 — ASes with the most addresses >1s (turtles):
	// ASN      Owner                              scan1      % rank       scan2      % rank       scan3      % rank
	// 26599    TELEFONICA BRASIL                    273   58.7    1         299   61.8    1         280   57.5    1
	// 26615    Tim Celular S.A.                     108   54.0    3         119   57.5    2         110   54.2    2
	// 45609    Bharti Airtel Ltd.                   118   68.2    2         113   64.2    3         100   55.6    3
	// 64512    AsiaNet Broadband                     98    1.5    4         112    1.7    4          99    1.4    4
	// 22394    Cellco Partnership                    78   54.2    6          85   57.0    5          85   55.9    6
	// 1257     TELE2                                 78   53.4    5          80   54.8    6          88   58.3    5
	// 6306     VENEZOLAN                             68   57.6    7          68   57.1    7          71   57.7    7
	// 35819    Etihad Etisalat (Mobily)              60   42.3    9          68   47.9    9          70   49.0    8
	// 27831    Colombia Movil                        64   48.9    8          68   51.1    8          62   46.6   10
	// 9829     National Internet Backbone            56   21.1   11          60   22.2   11          66   23.5    9
	//
	// Table 5 — continents:
	// Continent              scan1      %       scan2      %       scan3      %
	// South America            561   24.2         603   25.4         576   24.1
	// Asia                     373    3.5         404    3.7         373    3.3
	// Europe                   212    2.8         231    3.0         222    2.8
	// North America            108    1.5         120    1.6         109    1.4
	// Africa                    59   22.0          61   21.4          54   18.6
	// Oceania                   56   17.0          61   17.9          49   14.4
	//
	// Table 6 — ASes with the most addresses >100s (sleepy-turtles):
	// ASN      Owner                              scan1      % rank       scan2      % rank       scan3      % rank
	// 9829     National Internet Backbone             1    0.4    2           2    0.7    1           0    0.0   13
	// 26599    TELEFONICA BRASIL                      3    0.6    1           0    0.0   14           0    0.0   17
	// 64512    AsiaNet Broadband                      1    0.0    5           0    0.0   23           1    0.0    4
	// 64516    PanAfrica Online                       1    0.4    6           0    0.0   26           1    0.3    6
	// 1257     TELE2                                  0    0.0    7           0    0.0    3           1    0.7    1
	// 12430    VODAFONE ESPANA S.A.U.                 0    0.0   14           0    0.0   10           1    0.7    2
	// 22394    Cellco Partnership                     1    0.7    3           0    0.0   13           0    0.0   16
	// 27831    Colombia Movil                         1    0.8    4           0    0.0   16           0    0.0   19
	// 45609    Bharti Airtel Ltd.                     0    0.0   20           0    0.0   19           1    0.6    3
	// 64513    EuroLink Broadband                     0    0.0   24           1    0.0    2           0    0.0   25
	//
	// cellular/mixed carriers hold 9 of the top 10 turtle slots.
	// as in the paper: the slow Internet is mostly the cellular Internet.
}

// Package livesim substitutes the paper's two live experiments (§6,
// Figs 20–21) with scripted simulators, since the 2013 Amazon and eBay
// production databases are not available. Each simulator reproduces the
// dynamics the paper observed — a Thanksgiving price promotion on
// Amazon watches, and fast-churning bid listings versus slow Buy-It-Now
// listings on eBay — while also providing exact ground truth, which the
// paper's live runs could not.
package livesim

import (
	"fmt"
	"math/rand"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
)

// ---------------------------------------------------------------------
// Amazon watches (Fig 20)
// ---------------------------------------------------------------------

// AmazonDays are the simulated days of the Thanksgiving-week run
// (the paper monitored Nov 25 – Dec 3, 2013). Rounds are 1-based into
// this slice.
var AmazonDays = []string{
	"Nov 25", "Nov 26", "Nov 27", "Nov 28", "Nov 29",
	"Nov 30", "Dec 1", "Dec 2", "Dec 3",
}

// amazonPromoRounds marks the rounds (1-based) on which promotional
// pricing is in force: Thanksgiving (Nov 28) and Black Friday (Nov 29).
var amazonPromoRounds = map[int]bool{4: true, 5: true}

// Amazon simulates the watch catalogue behind the Product Advertising
// API: ~20k watches, per-day listing churn, and a sharp (~25%) price cut
// on a large share of items during the promo days that reverts afterwards.
type Amazon struct {
	Env *workload.Env

	basePrice map[uint64]float64 // pre-promo price by tuple ID
	promoOn   bool
}

// Amazon schema attribute indexes.
const (
	amzCategory = 0 // wrist, pocket, smart, other
	amzGender   = 1 // men, women, unisex
	amzBrand    = 2 // 40 brands
	amzBand     = 3 // 8 band materials
	amzStyle    = 4 // 10 styles
	amzTier     = 5 // 12 price tiers (searchable, coarse)
)

// NewAmazon builds the simulator with the given seed.
func NewAmazon(seed int64) (*Amazon, error) {
	sch := schema.New([]schema.Attr{
		{Name: "category", Domain: []string{"wrist", "pocket", "smart", "other"}},
		{Name: "gender", Domain: []string{"men", "women", "unisex"}},
		{Name: "brand", Domain: domain("brand", 40)},
		{Name: "band", Domain: domain("band", 8)},
		{Name: "style", Domain: domain("style", 10)},
		{Name: "tier", Domain: domain("tier", 12)},
	})
	genVals := func(rng *rand.Rand) []uint16 {
		return []uint16{
			pick(rng, []float64{0.62, 0.08, 0.22, 0.08}), // mostly wrist watches
			pick(rng, []float64{0.48, 0.38, 0.14}),       // slight men's majority
			uint16(rng.Intn(40)),
			uint16(rng.Intn(8)),
			uint16(rng.Intn(10)),
			uint16(rng.Intn(12)),
		}
	}
	genAux := func(rng *rand.Rand, vals []uint16) []float64 {
		// Price correlates with the searchable tier attribute.
		base := 40 + 45*float64(vals[amzTier])
		return []float64{base * (0.7 + 0.6*rng.Float64())}
	}
	data := workload.Custom(seed, 22000, sch, genVals, genAux)
	env, err := workload.NewEnv(data, 20000, seed+1)
	if err != nil {
		return nil, err
	}
	return &Amazon{Env: env, basePrice: make(map[uint64]float64)}, nil
}

// Rounds returns the number of simulated days.
func (a *Amazon) Rounds() int { return len(AmazonDays) }

// StepDay advances the catalogue to the given 1-based round. Round 1 is
// the initial state; promo pricing switches on for rounds 4–5 and reverts
// afterwards; every day sees mild listing churn.
func (a *Amazon) StepDay(round int) error {
	if round < 1 || round > len(AmazonDays) {
		return fmt.Errorf("livesim: amazon round %d out of range", round)
	}
	if round == 1 {
		return nil
	}
	// Daily churn: 0.7% of listings end, a similar number appear.
	if err := a.Env.DeleteFraction(0.007); err != nil {
		return err
	}
	if err := a.Env.InsertFromPool(140); err != nil {
		return err
	}
	wantPromo := amazonPromoRounds[round]
	switch {
	case wantPromo && !a.promoOn:
		if err := a.applyPromo(); err != nil {
			return err
		}
		a.promoOn = true
	case !wantPromo && a.promoOn:
		if err := a.revertPromo(); err != nil {
			return err
		}
		a.promoOn = false
	}
	return nil
}

// applyPromo discounts ~70% of items by 25% — enough to move the average
// price by roughly the $50 drop the paper observed.
func (a *Amazon) applyPromo() error {
	var repl []*schema.Tuple
	var ids []uint64
	a.Env.Store.ForEach(func(t *schema.Tuple) {
		if a.Env.Rng.Float64() > 0.7 {
			return
		}
		c := t.Clone(t.ID)
		a.basePrice[t.ID] = c.Aux[0]
		c.Aux[0] *= 0.75
		repl, ids = append(repl, c), append(ids, t.ID)
	})
	return a.Env.Store.ApplyBatch(repl, ids)
}

// revertPromo restores pre-promo prices for items still listed. It sets
// absolute prices, so the map's iteration order does not matter.
func (a *Amazon) revertPromo() error {
	var repl []*schema.Tuple
	var ids []uint64
	for id, price := range a.basePrice {
		t := a.Env.Store.Get(id)
		if t == nil {
			continue // listing ended during the promo
		}
		c := t.Clone(id)
		c.Aux[0] = price
		repl, ids = append(repl, c), append(ids, id)
	}
	if err := a.Env.Store.ApplyBatch(repl, ids); err != nil {
		return err
	}
	a.basePrice = make(map[uint64]float64)
	return nil
}

// Interface returns the k=100 search view (the Product Advertising API's
// page cap) over the catalogue.
func (a *Amazon) Interface() *hiddendb.Iface {
	return hiddendb.NewIface(a.Env.Store, 100, nil)
}

// Aggregates returns the three tracked quantities of Fig 20: average
// price, fraction of men's watches, fraction of wrist watches.
func (a *Amazon) Aggregates() []*agg.Aggregate {
	men := hiddendb.NewQuery(hiddendb.Pred{Attr: amzGender, Val: 0})
	wrist := hiddendb.NewQuery(hiddendb.Pred{Attr: amzCategory, Val: 0})
	return []*agg.Aggregate{
		agg.AvgOf("AVG(price)", agg.AuxField(0)),
		agg.AvgOf("%men", agg.Indicator(men)),
		agg.AvgOf("%wrist", agg.Indicator(wrist)),
	}
}

// ---------------------------------------------------------------------
// eBay women's wrist watches (Fig 21)
// ---------------------------------------------------------------------

// EBayHours labels the simulated hourly rounds (the paper ran 1pm–9pm EST).
var EBayHours = []string{"1pm", "2pm", "3pm", "4pm", "5pm", "6pm", "7pm", "8pm", "9pm"}

// eBay schema attribute indexes.
const (
	ebType      = 0 // FIX (Buy-It-Now) / BID (auction)
	ebBrand     = 1 // 60 brands
	ebCondition = 2 // 4 conditions
	ebBand      = 3 // 8 bands
	ebTier      = 4 // 10 price tiers
)

// EBay simulates the women's-wrist-watch listing pool behind the Finding
// API: Buy-It-Now listings are expensive and slow-moving; auction listings
// are cheaper, churn fast, and their price snapshots climb as bids arrive.
type EBay struct {
	Env *workload.Env
}

// NewEBay builds the simulator with the given seed.
func NewEBay(seed int64) (*EBay, error) {
	sch := schema.New([]schema.Attr{
		{Name: "type", Domain: []string{"FIX", "BID"}},
		{Name: "brand", Domain: domain("brand", 60)},
		{Name: "condition", Domain: []string{"new", "open-box", "used", "parts"}},
		{Name: "band", Domain: domain("band", 12)},
		{Name: "tier", Domain: domain("tier", 16)},
	})
	genVals := func(rng *rand.Rand) []uint16 {
		return []uint16{
			pick(rng, []float64{0.55, 0.45}),
			uint16(rng.Intn(60)),
			uint16(rng.Intn(4)),
			uint16(rng.Intn(12)),
			uint16(rng.Intn(16)),
		}
	}
	genAux := func(rng *rand.Rand, vals []uint16) []float64 {
		if vals[ebType] == 0 {
			// Buy-It-Now: the sticker price, substantially higher.
			return []float64{120 + 40*float64(vals[ebTier]) + 80*rng.Float64()}
		}
		// Auction snapshot: early-bid price, well below final value.
		return []float64{10 + 12*float64(vals[ebTier]) + 25*rng.Float64()}
	}
	data := workload.Custom(seed, 16000, sch, genVals, genAux)
	env, err := workload.NewEnv(data, 14000, seed+1)
	if err != nil {
		return nil, err
	}
	return &EBay{Env: env}, nil
}

// Rounds returns the number of simulated hours.
func (e *EBay) Rounds() int { return len(EBayHours) }

// StepHour advances the listings to the given 1-based hourly round:
// auctions receive bids (price snapshots climb ~8%) and churn fast
// (6% end, replaced), while Buy-It-Now listings barely move (0.5% churn).
func (e *EBay) StepHour(round int) error {
	if round < 1 || round > len(EBayHours) {
		return fmt.Errorf("livesim: ebay round %d out of range", round)
	}
	if round == 1 {
		return nil
	}
	isBid := func(t *schema.Tuple) bool { return t.Vals[ebType] == 1 }
	isFix := func(t *schema.Tuple) bool { return t.Vals[ebType] == 0 }

	// Bids arrive on 40% of auctions.
	err := e.Env.MutateAuxWhere(0.4, isBid, func(aux []float64, rng *rand.Rand) {
		aux[0] *= 1.05 + 0.06*rng.Float64()
	})
	if err != nil {
		return err
	}
	// Auction churn.
	if err := e.Env.DeleteWhere(0.06, isBid); err != nil {
		return err
	}
	// Buy-It-Now churn is an order of magnitude slower.
	if err := e.Env.DeleteWhere(0.005, isFix); err != nil {
		return err
	}
	// New listings keep the pool roughly stable.
	return e.Env.InsertFromPool(500)
}

// Interface returns the k=100 search view (the Finding API page cap).
func (e *EBay) Interface() *hiddendb.Iface {
	return hiddendb.NewIface(e.Env.Store, 100, nil)
}

// FixAggregate returns AVG(price) over Buy-It-Now listings.
func (e *EBay) FixAggregate() *agg.Aggregate {
	sel := hiddendb.NewQuery(hiddendb.Pred{Attr: ebType, Val: 0})
	return agg.AvgWhere("AVG(price)-FIX", agg.AuxField(0), sel)
}

// BidAggregate returns AVG(price) over auction listings.
func (e *EBay) BidAggregate() *agg.Aggregate {
	sel := hiddendb.NewQuery(hiddendb.Pred{Attr: ebType, Val: 1})
	return agg.AvgWhere("AVG(price)-BID", agg.AuxField(0), sel)
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

// domain builds a labelled domain of the given size.
func domain(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// pick draws an index from the (normalised) probability weights.
func pick(rng *rand.Rand, weights []float64) uint16 {
	x := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return uint16(i)
		}
	}
	return uint16(len(weights) - 1)
}

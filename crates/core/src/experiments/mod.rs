//! Experiment runners: one per table/figure in the paper's evaluation.
//!
//! Each runner returns a plain serializable struct; the bench harness
//! formats them as the paper's rows/series and writes JSON artifacts, and
//! EXPERIMENTS.md records paper-vs-measured for every entry.

pub mod ablations;
pub mod bench;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod integrity;
pub mod overload;
pub mod resilience;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;

pub use bench::{bench, BenchModel, BenchReport};
pub use fig4::{fig4, Fig4Dataset};
pub use fig5::{fig5, Fig5Platform, Fig5Point, Fig5Series};
pub use fig6::{fig6, Fig6Platform, Fig6Point, Fig6Series};
pub use fig7::{fig7, Fig7Cell, Fig7Platform};
pub use fig8::{fig8, Fig8Cell, Fig8Platform};
pub use fleet::{fleet, FleetExperiment, FleetRunRow, FleetShardRow};
pub use integrity::{
    detector_overhead, integrity, IntegrityCell, IntegrityExperiment, OverheadRow,
};
pub use overload::{
    overload, BreakerScenarioReport, LadderScenarioReport, OverloadExperiment, OverloadRow,
};
pub use resilience::{resilience, ResilienceRow};
pub use table1::{table1, Table1Row};
pub use table2::{table2, Table2Row};
pub use table3::{table3, Table3Row};

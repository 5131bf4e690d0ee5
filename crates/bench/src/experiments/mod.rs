//! One module per reproduced table/figure (see DESIGN.md §4 for the index).

pub mod ablations;
pub mod engine_batch;
pub mod fig01;
pub mod fig04;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod motivation;
pub mod scaling;
pub mod table6;
